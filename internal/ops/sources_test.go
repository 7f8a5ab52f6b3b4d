package ops

import "repro/internal/pipeline"

// clipSource replays a list of clips through EmitClip, the wav2rec
// encapsulation every source shares.
type clipSource []Clip

func (s clipSource) Name() string { return "clipsource" }

func (s clipSource) Run(out pipeline.Emitter) error {
	for i := range s {
		if err := EmitClip(out, &s[i]); err != nil {
			return err
		}
	}
	return nil
}

// sourceFunc adapts a function to pipeline.Source.
type sourceFunc func(out pipeline.Emitter) error

func (f sourceFunc) Name() string { return "func" }

func (f sourceFunc) Run(out pipeline.Emitter) error { return f(out) }

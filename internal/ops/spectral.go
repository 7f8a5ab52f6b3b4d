package ops

import (
	"fmt"
	"strconv"

	"repro/internal/dsp"
	"repro/internal/pipeline"
	"repro/internal/record"
	"repro/internal/timeseries"
)

// Reslice inserts, between each pair of consecutive audio records of an
// ensemble, a new record made of the last half of the first and the first
// half of the second — 50% overlap so the Welch window does not erase
// signal at record boundaries. m records become 2m-1.
type Reslice struct {
	// prev/cur are swapped scratch buffers so the steady state decodes
	// and builds overlaps without allocating.
	prev, cur, overlap []float64
	havePrev           bool
}

// NewReslice returns the operator.
func NewReslice() *Reslice { return &Reslice{} }

// Name implements pipeline.Operator.
func (o *Reslice) Name() string { return "reslice" }

// Process implements pipeline.Operator.
func (o *Reslice) Process(r *record.Record, out pipeline.Emitter) error {
	if r.Kind == record.KindOpenScope && r.ScopeType == record.ScopeEnsemble {
		o.havePrev = false
		return out.Emit(r)
	}
	if r.Kind != record.KindData || r.Subtype != record.SubtypeAudio {
		return out.Emit(r)
	}
	cur, err := r.AppendFloat64s(o.cur[:0])
	if err != nil {
		return fmt.Errorf("reslice: %w", err)
	}
	o.cur = cur
	if o.havePrev && len(o.prev) == len(cur) && len(cur) >= 2 {
		half := len(cur) / 2
		o.overlap = append(o.overlap[:0], o.prev[len(o.prev)-half:]...)
		o.overlap = append(o.overlap, cur[:len(cur)-half]...)
		or := newData(record.SubtypeAudio, r.Scope, r.ScopeType)
		or.SetFloat64s(o.overlap)
		if err := out.Emit(or); err != nil {
			return err
		}
	}
	o.prev, o.cur = o.cur, o.prev
	o.havePrev = true
	return out.Emit(r)
}

// WelchWindow applies a Welch window to each audio record, minimizing
// spectral leakage at record edges before the DFT.
type WelchWindow struct {
	win map[int]*dsp.Window // per record length
	buf []float64           // decode scratch
}

// NewWelchWindow returns the operator.
func NewWelchWindow() *WelchWindow { return &WelchWindow{win: make(map[int]*dsp.Window)} }

// Name implements pipeline.Operator.
func (o *WelchWindow) Name() string { return "welchwindow" }

// Process implements pipeline.Operator.
func (o *WelchWindow) Process(r *record.Record, out pipeline.Emitter) error {
	if r.Kind != record.KindData || r.Subtype != record.SubtypeAudio {
		return out.Emit(r)
	}
	samples, err := r.AppendFloat64s(o.buf[:0])
	if err != nil {
		return fmt.Errorf("welchwindow: %w", err)
	}
	o.buf = samples
	w, ok := o.win[len(samples)]
	if !ok {
		w, err = dsp.NewWindow(dsp.WindowWelch, len(samples))
		if err != nil {
			return fmt.Errorf("welchwindow: %w", err)
		}
		o.win[len(samples)] = w
	}
	if err := w.ApplyTo(samples); err != nil {
		return fmt.Errorf("welchwindow: %w", err)
	}
	r.SetFloat64s(samples)
	return out.Emit(r)
}

// Float2Cplx converts float64 audio records to complex128 records for the
// DFT.
type Float2Cplx struct {
	fbuf []float64
	cbuf []complex128
}

// NewFloat2Cplx returns the operator.
func NewFloat2Cplx() *Float2Cplx { return &Float2Cplx{} }

// Name implements pipeline.Operator.
func (o *Float2Cplx) Name() string { return "float2cplx" }

// Process implements pipeline.Operator.
func (o *Float2Cplx) Process(r *record.Record, out pipeline.Emitter) error {
	if r.Kind != record.KindData || r.Subtype != record.SubtypeAudio {
		return out.Emit(r)
	}
	samples, err := r.AppendFloat64s(o.fbuf[:0])
	if err != nil {
		return fmt.Errorf("float2cplx: %w", err)
	}
	o.fbuf = samples
	c := o.cbuf[:0]
	for _, v := range samples {
		c = append(c, complex(v, 0))
	}
	o.cbuf = c
	r.SetComplex128s(c)
	return out.Emit(r)
}

// DFT computes the discrete Fourier transform of each complex record,
// planning each record length once so steady-state transforms are
// in-place and allocation-free.
type DFT struct {
	plans map[int]*dsp.FFTPlan
	buf   []complex128
}

// NewDFT returns the operator.
func NewDFT() *DFT { return &DFT{} }

// Name implements pipeline.Operator.
func (o *DFT) Name() string { return "dft" }

// Process implements pipeline.Operator.
func (o *DFT) Process(r *record.Record, out pipeline.Emitter) error {
	if r.Kind != record.KindData || r.PayloadType != record.PayloadComplex128 {
		return out.Emit(r)
	}
	x, err := r.AppendComplex128s(o.buf[:0])
	if err != nil {
		return fmt.Errorf("dft: %w", err)
	}
	o.buf = x
	if o.plans == nil {
		o.plans = make(map[int]*dsp.FFTPlan)
	}
	plan, ok := o.plans[len(x)]
	if !ok {
		plan, err = dsp.NewFFTPlan(len(x))
		if err != nil {
			return fmt.Errorf("dft: %w", err)
		}
		o.plans[len(x)] = plan
	}
	if err := plan.Transform(x, false); err != nil {
		return fmt.Errorf("dft: %w", err)
	}
	r.SetComplex128s(x)
	return out.Emit(r)
}

// CAbs converts each complex spectral record to a float64 magnitude
// record (SubtypeSpectrum).
type CAbs struct {
	cbuf []complex128
	fbuf []float64
}

// NewCAbs returns the operator.
func NewCAbs() *CAbs { return &CAbs{} }

// Name implements pipeline.Operator.
func (o *CAbs) Name() string { return "cabs" }

// Process implements pipeline.Operator.
func (o *CAbs) Process(r *record.Record, out pipeline.Emitter) error {
	if r.Kind != record.KindData || r.PayloadType != record.PayloadComplex128 {
		return out.Emit(r)
	}
	x, err := r.AppendComplex128s(o.cbuf[:0])
	if err != nil {
		return fmt.Errorf("cabs: %w", err)
	}
	o.cbuf = x
	if cap(o.fbuf) < len(x) {
		o.fbuf = make([]float64, len(x))
	}
	mags := o.fbuf[:len(x)]
	dsp.MagnitudesInto(mags, x)
	r.Subtype = record.SubtypeSpectrum
	r.SetFloat64s(mags)
	return out.Emit(r)
}

// Cutout keeps only the frequency bins within [LowHz, HighHz) of each
// spectrum record, discarding the rest. The paper uses ~[1.2 kHz,
// 9.6 kHz]: frequencies below carry wind and human activity, frequencies
// above carry little bird song energy.
type Cutout struct {
	LowHz, HighHz float64
	sampleRate    float64
	buf           []float64
}

// NewCutout returns a cutout for the paper's band when lo/hi are zero.
func NewCutout(lowHz, highHz float64) *Cutout {
	if lowHz == 0 && highHz == 0 {
		lowHz, highHz = 1200, 9600
	}
	return &Cutout{LowHz: lowHz, HighHz: highHz}
}

// Name implements pipeline.Operator.
func (o *Cutout) Name() string { return "cutout" }

// Process implements pipeline.Operator.
func (o *Cutout) Process(r *record.Record, out pipeline.Emitter) error {
	// Track the sample rate from any scope that carries it.
	if r.Kind == record.KindOpenScope && r.PayloadType == record.PayloadContext {
		if sr, ok := r.ContextFloat(record.CtxSampleRate); ok {
			o.sampleRate = sr
		}
		return out.Emit(r)
	}
	if r.Kind != record.KindData || r.Subtype != record.SubtypeSpectrum {
		return out.Emit(r)
	}
	if o.sampleRate <= 0 {
		return fmt.Errorf("cutout: no sample rate in scope context")
	}
	mags, err := r.AppendFloat64s(o.buf[:0])
	if err != nil {
		return fmt.Errorf("cutout: %w", err)
	}
	o.buf = mags
	// The record holds the full DFT (length n); only bins below Nyquist
	// are meaningful for real input.
	n := len(mags)
	binHz := o.sampleRate / float64(n)
	lo := int(o.LowHz / binHz)
	hi := int(o.HighHz / binHz)
	if hi > n/2 {
		hi = n / 2
	}
	if lo < 0 {
		lo = 0
	}
	if lo >= hi {
		return fmt.Errorf("cutout: band [%v, %v) maps to empty bin range [%d, %d)", o.LowHz, o.HighHz, lo, hi)
	}
	r.SetFloat64s(mags[lo:hi])
	return out.Emit(r)
}

// PAAOp reduces each spectrum record by an integer factor using piecewise
// aggregate approximation (the paper's optional paa operator, factor 10).
type PAAOp struct {
	Factor       int
	buf, reduced []float64
}

// NewPAA returns the operator; factor <= 1 passes records through.
func NewPAA(factor int) *PAAOp { return &PAAOp{Factor: factor} }

// Name implements pipeline.Operator.
func (o *PAAOp) Name() string { return "paa" }

// Process implements pipeline.Operator.
func (o *PAAOp) Process(r *record.Record, out pipeline.Emitter) error {
	if o.Factor <= 1 || r.Kind != record.KindData || r.Subtype != record.SubtypeSpectrum {
		return out.Emit(r)
	}
	v, err := r.AppendFloat64s(o.buf[:0])
	if err != nil {
		return fmt.Errorf("paa: %w", err)
	}
	o.buf = v
	reduced, err := timeseries.PAAReduceInto(o.reduced[:0], v, o.Factor)
	if err != nil {
		return fmt.Errorf("paa: %w", err)
	}
	o.reduced = reduced
	r.SetFloat64s(reduced)
	return out.Emit(r)
}

// Rec2Vect merges every MergeCount consecutive spectrum records within an
// ensemble into one pattern record (SubtypePattern) suitable for MESO.
// With the standard geometry, 3 records of 350 bins produce the paper's
// 1050-feature patterns (105 after PAA). Leftover records at ensemble end
// are dropped, as partial patterns would have inconsistent
// dimensionality. Rec2Vect is the final owner of the spectrum records it
// merges and releases each once its values are copied out.
type Rec2Vect struct {
	MergeCount int
	buf        []float64
	have       int
}

// NewRec2Vect returns the operator; mergeCount <= 0 selects the paper's 3.
func NewRec2Vect(mergeCount int) *Rec2Vect {
	if mergeCount <= 0 {
		mergeCount = 3
	}
	return &Rec2Vect{MergeCount: mergeCount}
}

// Name implements pipeline.Operator.
func (o *Rec2Vect) Name() string { return "rec2vect" }

// Process implements pipeline.Operator.
func (o *Rec2Vect) Process(r *record.Record, out pipeline.Emitter) error {
	if r.Kind == record.KindOpenScope && r.ScopeType == record.ScopeEnsemble {
		o.buf = o.buf[:0]
		o.have = 0
		return out.Emit(r)
	}
	if r.Kind.IsClose() && r.ScopeType == record.ScopeEnsemble {
		o.buf = o.buf[:0]
		o.have = 0
		return out.Emit(r)
	}
	if r.Kind != record.KindData || r.Subtype != record.SubtypeSpectrum {
		return out.Emit(r)
	}
	buf, err := r.AppendFloat64s(o.buf)
	if err != nil {
		return fmt.Errorf("rec2vect: %w", err)
	}
	scope, st := r.Scope, r.ScopeType
	record.Release(r)
	o.buf = buf
	o.have++
	if o.have < o.MergeCount {
		return nil
	}
	p := newData(record.SubtypePattern, scope, st)
	p.SetFloat64s(o.buf)
	o.buf = o.buf[:0]
	o.have = 0
	return out.Emit(p)
}

// SpectralOps builds the paper's full spectral segment: reslice ->
// welchwindow -> float2cplx -> dft -> cabs -> cutout -> [paa] ->
// rec2vect. paaFactor <= 1 omits the PAA reduction.
func SpectralOps(paaFactor int) []pipeline.Operator {
	ops := []pipeline.Operator{
		NewReslice(),
		NewWelchWindow(),
		NewFloat2Cplx(),
		NewDFT(),
		NewCAbs(),
		NewCutout(0, 0),
	}
	if paaFactor > 1 {
		ops = append(ops, NewPAA(paaFactor))
	}
	return append(ops, NewRec2Vect(3))
}

// ExtractionOps builds the paper's ensemble extraction segment:
// saxanomaly -> trigger -> cutter.
func ExtractionOps(cfg ExtractConfig) ([]pipeline.Operator, *Cutter, error) {
	sax, err := NewSAXAnomaly(cfg)
	if err != nil {
		return nil, nil, err
	}
	cutter := NewCutter(cfg)
	return []pipeline.Operator{sax, NewTrigger(cfg), cutter}, cutter, nil
}

// FormatHz renders a frequency for topology listings.
func FormatHz(hz float64) string {
	if hz >= 1000 {
		return strconv.FormatFloat(hz/1000, 'g', 4, 64) + "kHz"
	}
	return strconv.FormatFloat(hz, 'g', 4, 64) + "Hz"
}

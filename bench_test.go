// Package repro's root benchmark harness regenerates every table and
// figure of the paper's evaluation (see DESIGN.md §4 for the experiment
// index) and measures the ablations called out in DESIGN.md §5. Shape
// metrics (accuracy, reduction) are attached to the benchmark output via
// ReportMetric so `go test -bench` doubles as the reproduction run:
//
//	go test -bench=Table -benchmem       # Tables 1-3
//	go test -bench=Fig -benchmem         # Figures 2-6
//	go test -bench=Ablation -benchmem    # design-choice sweeps
//
// Benchmarks run at a reduced dataset scale so the suite completes in
// minutes; cmd/experiments reproduces the full protocol.
package repro

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/meso"
	"repro/internal/ops"
	"repro/internal/synth"
	"repro/internal/timeseries"
)

// benchCfg is the scaled-down experiment configuration shared by the
// table benchmarks.
func benchCfg() experiments.Config {
	return experiments.Config{Scale: 0.05, LOOReps: 1, ResubReps: 1, MaxFolds: 20, Seed: 1, Clips: 2}
}

// BenchmarkTable1DatasetBuild regenerates the Table 1 census (dataset
// synthesis + featurization).
func BenchmarkTable1DatasetBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		census, err := experiments.Table1(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if len(census) != 10 {
			b.Fatalf("census has %d species", len(census))
		}
	}
}

// table2Bench runs one Table 2 cell.
func table2Bench(b *testing.B, dataset, protocol string) {
	b.Helper()
	b.ReportAllocs()
	var acc float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Dataset == dataset && r.Protocol == protocol {
				acc = r.Result.MeanAccuracy
			}
		}
	}
	b.ReportMetric(acc*100, "accuracy%")
}

// The four Table 2 data sets under leave-one-out. Resubstitution rows are
// produced by the same call; benchmarked separately below so regressions
// localize.
func BenchmarkTable2PAAEnsembleLOO(b *testing.B) { table2Bench(b, "PAA Ensemble", "Leave-one-out") }

func BenchmarkTable2PAAEnsembleResub(b *testing.B) {
	table2Bench(b, "PAA Ensemble", "Resubstitution")
}

// BenchmarkTable2AllRows regenerates the complete table.
func BenchmarkTable2AllRows(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 8 {
			b.Fatalf("table 2 has %d rows, want 8", len(rows))
		}
	}
}

// BenchmarkTable3Confusion regenerates the confusion matrix.
func BenchmarkTable3Confusion(b *testing.B) {
	b.ReportAllocs()
	var acc float64
	for i := 0; i < b.N; i++ {
		m, err := experiments.Table3(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		acc = m.Accuracy()
	}
	b.ReportMetric(acc*100, "accuracy%")
}

// BenchmarkFig2Spectrogram renders the Figure 2 spectrogram of a 10 s
// clip.
func BenchmarkFig2Spectrogram(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	clip, err := synth.GenerateClip(rng, synth.ClipConfig{Seconds: 10, Events: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sg, err := dsp.ComputeSpectrogram(clip.Samples, dsp.SpectrogramConfig{
			SampleRate: clip.SampleRate,
			FrameLen:   1024,
			Hop:        1024,
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = sg.ASCII(96, 16)
	}
}

// BenchmarkFig3PAASpectrogram adds the per-column PAA reduction.
func BenchmarkFig3PAASpectrogram(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	clip, err := synth.GenerateClip(rng, synth.ClipConfig{Seconds: 10, Events: 3})
	if err != nil {
		b.Fatal(err)
	}
	sg, err := dsp.ComputeSpectrogram(clip.Samples, dsp.SpectrogramConfig{
		SampleRate: clip.SampleRate,
		FrameLen:   1024,
		Hop:        1024,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.PAASpectrogram(sg, 10)
	}
}

// BenchmarkFig4SAXConversion benchmarks the PAA->SAX example conversion.
func BenchmarkFig4SAXConversion(b *testing.B) {
	series := make([]float64, 1024)
	rng := rand.New(rand.NewSource(2))
	for i := range series {
		series[i] = rng.NormFloat64()
	}
	sax, err := timeseries.NewSAX(5)
	if err != nil {
		b.Fatal(err)
	}
	word := make([]int, 18)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		paa, err := timeseries.PAA(timeseries.ZNormalize(series), len(word))
		if err != nil {
			b.Fatal(err)
		}
		for j, x := range paa {
			word[j] = sax.Symbol(x)
		}
	}
}

// BenchmarkFig5Topology composes the full Figure 5 pipeline.
func BenchmarkFig5Topology(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := experiments.Figure5Pipeline()
		if p.Topology() == "" {
			b.Fatal("empty topology")
		}
	}
}

// BenchmarkFig6Extraction runs the trigger/ensemble extraction of Figure 6
// over one 10 s clip and reports the reduction.
func BenchmarkFig6Extraction(b *testing.B) {
	b.ReportAllocs()
	var red float64
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure6(experiments.Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		red = fig.Reduction
	}
	b.ReportMetric(red*100, "reduction%")
}

// BenchmarkDataReduction measures the headline ~80% data reduction over
// synthetic 30 s station clips (paper §4: 80.6%).
func BenchmarkDataReduction(b *testing.B) {
	b.ReportAllocs()
	var red float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Reduction(experiments.Config{Seed: 1, Clips: 2})
		if err != nil {
			b.Fatal(err)
		}
		red = r.Reduction
	}
	b.ReportMetric(red*100, "reduction%")
}

// BenchmarkAblationSAXParams sweeps the SAX alphabet and anomaly window
// of the detector over a fixed clip, reporting extraction throughput.
// DESIGN.md §5: alphabet 8 / window 100 (the paper's settings) should be
// near the throughput/robustness knee.
func BenchmarkAblationSAXParams(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	clip, err := synth.GenerateClip(rng, synth.ClipConfig{Seconds: 5, Events: 2})
	if err != nil {
		b.Fatal(err)
	}
	for _, alphabet := range []int{4, 8, 16} {
		for _, window := range []int{50, 100, 200} {
			name := fmt.Sprintf("alphabet=%d/window=%d", alphabet, window)
			b.Run(name, func(b *testing.B) {
				cfg := ops.DefaultExtractConfig()
				cfg.Anomaly.Alphabet = alphabet
				cfg.Anomaly.Window = window
				b.SetBytes(int64(8 * len(clip.Samples)))
				b.ReportAllocs()
				var red float64
				for i := 0; i < b.N; i++ {
					ext, err := core.NewExtractor(cfg).Extract(ops.Clip{
						ID: "ablate", SampleRate: clip.SampleRate, Samples: clip.Samples,
					})
					if err != nil {
						b.Fatal(err)
					}
					red = ext.Reduction()
				}
				b.ReportMetric(red*100, "reduction%")
			})
		}
	}
}

// BenchmarkAblationMAWindow sweeps the moving-average smoothing window
// (paper: 2250) and reports ensemble fragmentation: small windows split
// songs into slivers, large ones merge distinct events.
func BenchmarkAblationMAWindow(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	clip, err := synth.GenerateClip(rng, synth.ClipConfig{Seconds: 10, Events: 2})
	if err != nil {
		b.Fatal(err)
	}
	for _, window := range []int{500, 2250, 9000} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			cfg := ops.DefaultExtractConfig()
			cfg.SmoothWindow = window
			cfg.TriggerWarmup = window
			cfg.TriggerHangover = 2 * window
			b.ReportAllocs()
			var count int
			for i := 0; i < b.N; i++ {
				ext, err := core.NewExtractor(cfg).Extract(ops.Clip{
					ID: "ablate", SampleRate: clip.SampleRate, Samples: clip.Samples,
				})
				if err != nil {
					b.Fatal(err)
				}
				count = len(ext.Ensembles)
			}
			b.ReportMetric(float64(count), "ensembles")
		})
	}
}

// BenchmarkAblationPAAFactor sweeps the PAA reduction factor of the
// feature pipeline (paper contrasts 1x and 10x) and reports classifier
// accuracy on a small dataset.
func BenchmarkAblationPAAFactor(b *testing.B) {
	for _, factor := range []int{1, 5, 10, 20} {
		b.Run(fmt.Sprintf("factor=%d", factor), func(b *testing.B) {
			b.ReportAllocs()
			var acc float64
			for i := 0; i < b.N; i++ {
				ds, err := core.BuildDataset(core.DatasetConfig{
					Counts:    core.ScaleCounts(core.PaperCounts(), 0.04),
					PAAFactor: factor,
					Seed:      5,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := eval.LeaveOneOutEnsembles(ds.Ensembles, eval.Options{
					Meso:        experiments.MesoConfig(),
					Repetitions: 1,
					MaxFolds:    20,
					Seed:        5,
				})
				if err != nil {
					b.Fatal(err)
				}
				acc = res.MeanAccuracy
			}
			b.ReportMetric(acc*100, "accuracy%")
		})
	}
}

// BenchmarkAblationMesoDelta sweeps the sensitivity-sphere growth
// fraction, reporting sphere granularity and accuracy.
func BenchmarkAblationMesoDelta(b *testing.B) {
	ds, err := core.BuildDataset(core.DatasetConfig{
		Counts:    core.ScaleCounts(core.PaperCounts(), 0.04),
		PAAFactor: 10,
		Seed:      6,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, frac := range []float64{0.2, 0.45, 0.8, 1.5} {
		b.Run(fmt.Sprintf("delta=%.2f", frac), func(b *testing.B) {
			b.ReportAllocs()
			var spheres int
			var acc float64
			for i := 0; i < b.N; i++ {
				cfg := meso.Config{DeltaFraction: frac}
				cls := core.NewClassifier(cfg)
				for _, e := range ds.Ensembles {
					if err := cls.TrainEnsemble(e); err != nil {
						b.Fatal(err)
					}
				}
				spheres = cls.MESO().SphereCount()
				correct := 0
				for _, e := range ds.Ensembles {
					vote, err := cls.ClassifyEnsemble(e.Patterns)
					if err != nil {
						b.Fatal(err)
					}
					if vote.Label == e.Label {
						correct++
					}
				}
				acc = float64(correct) / float64(len(ds.Ensembles))
			}
			b.ReportMetric(float64(spheres), "spheres")
			b.ReportMetric(acc*100, "resub-accuracy%")
		})
	}
}

// BenchmarkAblationFullClipPipeline measures end-to-end throughput of the
// complete Figure 5 chain (extraction + spectral + patterns) over one
// clip, in samples/sec terms via SetBytes.
func BenchmarkAblationFullClipPipeline(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	clip, err := synth.GenerateClip(rng, synth.ClipConfig{Seconds: 10, Events: 2})
	if err != nil {
		b.Fatal(err)
	}
	fz := &core.Featurizer{PAAFactor: 10}
	b.SetBytes(int64(8 * len(clip.Samples)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ext, err := core.NewExtractor(ops.DefaultExtractConfig()).Extract(ops.Clip{
			ID: "bench", SampleRate: clip.SampleRate, Samples: clip.Samples,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range ext.Ensembles {
			if _, err := fz.Features(e); err != nil {
				b.Fatal(err)
			}
		}
	}
}

package experiments

import (
	"runtime"
	"time"

	"jqos/internal/coding"
	"jqos/internal/core"
	"jqos/internal/stats"
)

func init() {
	register(Experiment{ID: "10", Title: "Encoder throughput vs encoding threads (Kpps)", Run: runFig10})
}

// measurePipeline pushes packets through a coding.Pipeline with n workers
// and returns sustained throughput in Kpps. This is a real wall-clock
// measurement (the only experiment that is hardware-dependent): absolute
// numbers vary by machine, but the scaling shape is the paper's claim.
func measurePipeline(workers int, packets int, payload []byte) float64 {
	cfg := coding.DefaultEncoderConfig()
	cfg.K = 6
	cfg.InBlock = 5 // one coded packet per five data packets (§6.6)
	// Discard emits but walk them so the encode work is not elided.
	sink := func(es []core.Emit) {
		for range es {
		}
	}
	p, err := coding.NewPipeline(1, cfg, workers, 4096, sink)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	flows := workers * 8 // plenty of flows per worker to fill batches
	start := time.Now()
	for i := 0; i < packets; i++ {
		flow := core.FlowID(i%flows + 1)
		p.Submit(core.Time(i)*time.Microsecond, 2, 100, flow, core.Seq(i/flows+1), payload)
	}
	p.Close()
	elapsed := time.Since(start)
	return float64(packets) / elapsed.Seconds() / 1000
}

func runFig10(o Options) (Result, error) {
	packets := 400000
	maxWorkers := 8
	if o.Quick {
		packets = 40000
		maxWorkers = 4
	}
	payload := make([]byte, 512) // paper's accounting uses 512 B packets
	ingress := stats.Series{Name: "Ingress"}
	egress := stats.Series{Name: "Egress"}
	var rates []float64
	for w := 1; w <= maxWorkers; w++ {
		kpps := measurePipeline(w, packets, payload)
		rates = append(rates, kpps)
		ingress.Append(float64(w), kpps)
		// Egress = parity output rate ≈ ingress × α.
		alpha := coding.EncoderConfig{K: 6, CrossParity: 2, InBlock: 5, InParity: 1}.Alpha()
		egress.Append(float64(w), kpps*alpha)
	}
	fig := stats.Figure{
		ID:     "fig10",
		Title:  "Encoder throughput scaling",
		XLabel: "encoding threads",
		YLabel: "throughput (Kpps)",
	}
	fig.AddSeries(ingress)
	fig.AddSeries(egress)
	fig.AddNote("paper: ~65 Kpps per thread, linear to ~500 Kpps at 8 threads (Emulab: 32 hw threads)")
	fig.AddNote("measured on %d-CPU host: 1 thread %.0f Kpps, %d threads %.0f Kpps (%.1fx)",
		runtime.NumCPU(), rates[0], maxWorkers, rates[len(rates)-1], rates[len(rates)-1]/rates[0])
	if runtime.NumCPU() < maxWorkers {
		fig.AddNote("host has fewer CPUs than workers — wall-clock scaling saturates at %d; "+
			"the shared-nothing pipeline (flows pinned to workers) is what the paper's claim rests on",
			runtime.NumCPU())
	}
	return Result{Figures: []stats.Figure{fig}}, nil
}

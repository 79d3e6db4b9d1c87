package coding

import (
	"sync"

	"jqos/internal/core"
)

// Pipeline is the parallel DC1 encoding stage behind Figure 10: incoming
// flows are load-balanced across independent Encoder workers, and
// throughput scales linearly with the worker count because the workers
// share nothing. Each worker owns its own Encoder, input ring, and batch
// space (flows are pinned to workers, so cross-stream batches never span
// workers — exactly the paper's "load balance the streams to the different
// encoding threads").
type Pipeline struct {
	workers []*worker
	wg      sync.WaitGroup
}

type pktIn struct {
	now      core.Time
	dc2      core.NodeID
	receiver core.NodeID
	flow     core.FlowID
	seq      core.Seq
	payload  []byte
}

type worker struct {
	enc  *Encoder
	in   chan pktIn
	sink func([]core.Emit)
}

// NewPipeline starts n workers, each running an Encoder built from cfg.
// sink consumes the emitted parity messages; it is called from worker
// goroutines and must be safe for concurrent use (or nil to discard, as the
// throughput benchmark does).
func NewPipeline(self core.NodeID, cfg EncoderConfig, n int, queueLen int, sink func([]core.Emit)) (*Pipeline, error) {
	if n < 1 {
		n = 1
	}
	if queueLen < 1 {
		queueLen = 1024
	}
	p := &Pipeline{workers: make([]*worker, n)}
	for i := 0; i < n; i++ {
		enc, err := NewEncoder(self, cfg)
		if err != nil {
			return nil, err
		}
		w := &worker{enc: enc, in: make(chan pktIn, queueLen), sink: sink}
		p.workers[i] = w
		p.wg.Add(1)
		go p.run(w)
	}
	return p, nil
}

func (p *Pipeline) run(w *worker) {
	defer p.wg.Done()
	for in := range w.in {
		emits := w.enc.OnData(in.now, in.dc2, in.receiver, in.flow, in.seq, in.payload)
		if len(emits) > 0 && w.sink != nil {
			w.sink(emits)
		}
	}
	// Drain any open batches on shutdown.
	if emits := w.enc.Flush(0); len(emits) > 0 && w.sink != nil {
		w.sink(emits)
	}
}

// Submit hands one data packet to the pipeline. Flows are pinned to
// workers by flow ID, so per-flow ordering is preserved. Submit blocks when
// the worker's queue is full (back-pressure, matching the rate-limited
// senders of §6.6).
func (p *Pipeline) Submit(now core.Time, dc2, receiver core.NodeID, flow core.FlowID, seq core.Seq, payload []byte) {
	w := p.workers[uint64(flow)%uint64(len(p.workers))]
	w.in <- pktIn{now: now, dc2: dc2, receiver: receiver, flow: flow, seq: seq, payload: payload}
}

// Close stops the workers and waits for them to drain.
func (p *Pipeline) Close() {
	for _, w := range p.workers {
		close(w.in)
	}
	p.wg.Wait()
}

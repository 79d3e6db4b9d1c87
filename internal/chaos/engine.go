package chaos

import (
	"fmt"
	"time"

	"jqos"
	"jqos/internal/core"
	"jqos/internal/netem"
)

// linkOp is one compiled model swap on one directed emulated link. A nil
// delay leaves the current delay process alone; loss is always applied
// (nil means lossless — netem.Link treats it as NoLoss).
type linkOp struct {
	link  *netem.Link
	delay netem.DelayModel
	loss  netem.LossModel
}

// Engine is a Scenario compiled against one Deployment: every directed
// link resolved to its *netem.Link and every delay/loss model built up
// front, so applying a step at fault time is pure pointer swaps —
// 0 allocs/op (BenchmarkChaosStep gates it), which matters because
// injection must not perturb the timing-sensitive run it is measuring.
type Engine struct {
	d   *jqos.Deployment
	sc  Scenario
	ops [][]linkOp
}

// Bind compiles the scenario against the deployment. It validates every
// step eagerly — an unknown link or an unconnected pair in a heal step
// is a scripting bug better caught before the run than silently skipped
// halfway through it. The scenario is sorted by step time as a side
// effect.
func Bind(d *jqos.Deployment, sc Scenario) (*Engine, error) {
	sc.Sort()
	e := &Engine{d: d, sc: sc, ops: make([][]linkOp, len(sc.Steps))}
	for i, s := range sc.Steps {
		ops, err := e.compile(s)
		if err != nil {
			return nil, fmt.Errorf("chaos: step %d (%s): %w", i, s.describe(), err)
		}
		e.ops[i] = ops
	}
	return e, nil
}

// dirLink resolves the directed emulated link a→b.
func (e *Engine) dirLink(a, b core.NodeID) (*netem.Link, error) {
	l := e.d.Network().LinkBetween(a, b)
	if l == nil {
		return nil, fmt.Errorf("no link %v→%v", a, b)
	}
	return l, nil
}

// pairOps builds one op per direction of a↔b with the given model
// builders (called once per direction — stateful loss chains must not
// be shared between links).
func (e *Engine) pairOps(a, b core.NodeID, delay func() netem.DelayModel, loss func() netem.LossModel) ([]linkOp, error) {
	var ops []linkOp
	for _, dir := range [][2]core.NodeID{{a, b}, {b, a}} {
		l, err := e.dirLink(dir[0], dir[1])
		if err != nil {
			return nil, err
		}
		op := linkOp{link: l, loss: loss()}
		if delay != nil {
			op.delay = delay()
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// shapeDelay mirrors ConnectDCs/Link.Set's delay family: base
// latency with 2% uniform jitter.
func shapeDelay(x time.Duration) netem.DelayModel {
	return netem.UniformJitter{Base: x, Jitter: x / 50}
}

// degradeLoss mirrors Link.Set: positive rates are Bernoulli,
// zero is lossless.
func degradeLoss(p float64) netem.LossModel {
	if p > 0 {
		return netem.Bernoulli{P: p}
	}
	return nil
}

// healShape looks up the latency ConnectDCs recorded for a↔b.
func (e *Engine) healShape(a, b core.NodeID) (time.Duration, error) {
	x, ok := e.d.Link(a, b).Shape()
	if !ok {
		return 0, fmt.Errorf("DCs %v and %v were never connected", a, b)
	}
	return x, nil
}

func (e *Engine) compile(s Step) ([]linkOp, error) {
	switch s.Kind {
	case StepDegrade:
		return e.pairOps(s.A, s.B,
			func() netem.DelayModel { return shapeDelay(s.Latency) },
			func() netem.LossModel { return degradeLoss(s.Loss) })
	case StepDegradeAsym:
		l, err := e.dirLink(s.A, s.B)
		if err != nil {
			return nil, err
		}
		return []linkOp{{link: l, delay: shapeDelay(s.Latency), loss: degradeLoss(s.Loss)}}, nil
	case StepPartition:
		return e.pairOps(s.A, s.B, nil,
			func() netem.LossModel { return netem.Bernoulli{P: 1} })
	case StepPartitionAsym:
		l, err := e.dirLink(s.A, s.B)
		if err != nil {
			return nil, err
		}
		return []linkOp{{link: l, loss: netem.Bernoulli{P: 1}}}, nil
	case StepHeal:
		x, err := e.healShape(s.A, s.B)
		if err != nil {
			return nil, err
		}
		return e.pairOps(s.A, s.B,
			func() netem.DelayModel { return shapeDelay(x) },
			func() netem.LossModel { return nil })
	case StepHealAsym:
		x, err := e.healShape(s.A, s.B)
		if err != nil {
			return nil, err
		}
		l, err := e.dirLink(s.A, s.B)
		if err != nil {
			return nil, err
		}
		return []linkOp{{link: l, delay: shapeDelay(x), loss: nil}}, nil
	case StepBurstyLoss:
		return e.pairOps(s.A, s.B, nil,
			func() netem.LossModel { return netem.NewGilbertElliott(s.Loss, s.MeanBurst) })
	case StepCrashDC, StepHealDC:
		nbrs := e.d.Routing().Graph().Neighbors(s.A)
		if len(nbrs) == 0 {
			return nil, fmt.Errorf("DC %v has no inter-DC links", s.A)
		}
		var ops []linkOp
		for _, n := range nbrs {
			var (
				sub []linkOp
				err error
			)
			if s.Kind == StepCrashDC {
				sub, err = e.pairOps(s.A, n, nil,
					func() netem.LossModel { return netem.Bernoulli{P: 1} })
			} else {
				var x time.Duration
				x, err = e.healShape(s.A, n)
				if err == nil {
					sub, err = e.pairOps(s.A, n,
						func() netem.DelayModel { return shapeDelay(x) },
						func() netem.LossModel { return nil })
				}
			}
			if err != nil {
				return nil, err
			}
			ops = append(ops, sub...)
		}
		return ops, nil
	default:
		return nil, fmt.Errorf("unknown step kind %v", s.Kind)
	}
}

// Apply injects step i immediately: swap each compiled link's models and
// nudge fault detection. The loop body performs no allocation — the
// models and link pointers were built at Bind time.
func (e *Engine) Apply(i int) {
	for _, op := range e.ops[i] {
		if op.delay != nil {
			op.link.SetDelay(op.delay)
		}
		op.link.SetLoss(op.loss)
	}
	e.d.NudgeFaultDetection()
}

// Schedule queues every step on the deployment's simulator at its At
// time. Call before running; steps in the past panic (netem contract).
func (e *Engine) Schedule() {
	for i := range e.sc.Steps {
		i := i
		e.d.Sim().At(e.sc.Steps[i].At, func() { e.Apply(i) })
	}
}

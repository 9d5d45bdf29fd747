package sim

import "time"

// Ticker invokes a callback at a fixed virtual-time period until stopped.
// Construct with NewTicker; the first invocation happens one period after
// construction (plus an optional phase offset).
type Ticker struct {
	engine  *Engine
	period  time.Duration
	fn      func()
	timer   *Timer
	stopped bool
}

// NewTicker schedules fn to run every period on the global lane, starting at
// phase+period from now. A non-positive period is rejected by returning nil.
func NewTicker(e *Engine, period, phase time.Duration, fn func()) *Ticker {
	if period <= 0 {
		return nil
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	t.timer = e.Schedule(phase+period, t.tick)
	return t
}

// Stop cancels future invocations. It is safe to call multiple times and
// from within the callback itself.
func (t *Ticker) Stop() {
	t.stopped = true
	if t.timer != nil {
		t.timer.Cancel()
	}
}

// Stopped reports whether Stop has been called.
func (t *Ticker) Stopped() bool {
	return t.stopped
}

func (t *Ticker) tick() {
	if t.stopped {
		return
	}
	t.fn()
	if t.stopped {
		return
	}
	t.timer = t.engine.Schedule(t.period, t.tick)
}

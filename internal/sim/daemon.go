package sim

// Daemon is the arm → dwell → run state machine shared by every
// pressure-driven control loop (preemption, autoscaling, rebalancing):
// at most one decision is armed on the event queue and at most one
// pass runs at a time, so an idle loop leaves the queue empty and the
// engine drainable. The owner keeps its own condition and pressure
// clock; the daemon only sequences.
type Daemon struct {
	eng     *Engine
	name    string
	done    func()
	armed   bool
	running bool
}

// NewDaemon returns an idle daemon whose passes run as procs named
// name. done runs after each pass, once the daemon is idle again.
func NewDaemon(eng *Engine, name string, done func()) *Daemon {
	return &Daemon{eng: eng, name: name, done: done}
}

// Busy reports whether a decision is armed or a pass is running.
func (d *Daemon) Busy() bool { return d.armed || d.running }

// Running reports whether a pass is in flight.
func (d *Daemon) Running() bool { return d.running }

// Arm schedules decide wait from now, unless a decision is already
// armed or a pass is running. decide runs with the daemon disarmed, so
// it may re-arm; it returns the pass to run on a new proc, or nil to
// stand down.
func (d *Daemon) Arm(wait Time, decide func() func(*Proc)) {
	if d.Busy() {
		return
	}
	d.armed = true
	d.eng.Schedule(wait, func() {
		d.armed = false
		pass := decide()
		if pass == nil {
			return
		}
		d.running = true
		d.eng.Go(d.name, func(p *Proc) {
			pass(p)
			d.finish()
		})
	})
}

// Do runs fn as a pass on the caller: Arm is a no-op until fn returns,
// and done runs after it like after any pass.
func (d *Daemon) Do(fn func()) {
	d.running = true
	fn()
	d.finish()
}

func (d *Daemon) finish() {
	d.running = false
	d.done()
}

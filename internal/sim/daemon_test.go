package sim

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

func TestDaemonArmIsNoOpWhileArmedOrRunning(t *testing.T) {
	e := NewEngine(1)
	d := NewDaemon(e, "d", func() {})
	decisions := 0
	var decide func() func(*Proc)
	decide = func() func(*Proc) {
		decisions++
		return func(p *Proc) {
			d.Arm(0, decide) // running: no-op
			p.Sleep(time.Second)
		}
	}
	d.Arm(time.Second, decide)
	d.Arm(0, decide) // armed: no-op
	if !d.Busy() || d.Running() {
		t.Fatalf("armed daemon: Busy=%v Running=%v", d.Busy(), d.Running())
	}
	e.Run()
	if decisions != 1 {
		t.Fatalf("decide ran %d times, want 1", decisions)
	}
	if e.Now() != 2*time.Second {
		t.Fatalf("clock = %v, want the 1s dwell plus the 1s pass", e.Now())
	}
}

func TestDaemonNilDecisionStandsDown(t *testing.T) {
	e := NewEngine(1)
	dones := 0
	d := NewDaemon(e, "d", func() { dones++ })
	d.Arm(time.Second, func() func(*Proc) {
		if d.Busy() {
			t.Error("decide ran with the daemon still armed")
		}
		return nil
	})
	e.Run()
	if d.Busy() || dones != 0 || e.Processed() != 1 {
		t.Fatalf("stand-down: Busy=%v dones=%d events=%d, want idle, 0, 1", d.Busy(), dones, e.Processed())
	}
}

func TestDaemonDoneRunsIdleAfterPass(t *testing.T) {
	e := NewEngine(1)
	var log []string
	var d *Daemon
	d = NewDaemon(e, "d", func() {
		log = append(log, fmt.Sprintf("done busy=%v", d.Busy()))
	})
	d.Arm(0, func() func(*Proc) {
		return func(p *Proc) {
			log = append(log, fmt.Sprintf("pass running=%v proc=%s", d.Running(), p.Name()))
		}
	})
	e.Run()
	want := []string{"pass running=true proc=d", "done busy=false"}
	if !slices.Equal(log, want) {
		t.Fatalf("log = %q, want %q", log, want)
	}
}

func TestDaemonDoBlocksArm(t *testing.T) {
	e := NewEngine(1)
	dones := 0
	d := NewDaemon(e, "d", func() { dones++ })
	decisions := 0
	d.Do(func() {
		if !d.Running() {
			t.Error("Do's pass is not marked running")
		}
		d.Arm(0, func() func(*Proc) { decisions++; return nil })
	})
	e.Run()
	if decisions != 0 || dones != 1 || d.Busy() {
		t.Fatalf("after Do: decisions=%d dones=%d Busy=%v, want 0, 1, false", decisions, dones, d.Busy())
	}
}

func TestWatchFiresOncePerNotify(t *testing.T) {
	e := NewEngine(1)
	b := NewBroadcast(e)
	calls := 0
	b.Watch(func() { calls++ })
	for i := 1; i <= 3; i++ {
		b.Notify()
		if calls != i {
			t.Fatalf("after %d notifies: %d calls", i, calls)
		}
	}
}

func TestWatchNestedNotifyDoesNotRefire(t *testing.T) {
	e := NewEngine(1)
	b := NewBroadcast(e)
	calls := 0
	b.Watch(func() {
		calls++
		b.Notify() // not yet re-subscribed: must not recurse
	})
	b.Notify()
	if calls != 1 {
		t.Fatalf("nested notify: %d calls, want 1", calls)
	}
	b.Notify()
	if calls != 2 {
		t.Fatalf("watch dropped after a nested notify: %d calls, want 2", calls)
	}
}

// TestWatchWakesLikeWatcherProc: a callback watch installed on a
// zero-delay event wakes in exactly the slot of a proc that loops on
// Await(Future()), and leaves the same event sequence behind.
func TestWatchWakesLikeWatcherProc(t *testing.T) {
	script := func(callback bool) ([]string, int64) {
		e := NewEngine(1)
		b := NewBroadcast(e)
		var log []string
		parker := func(name string) func(*Proc) {
			return func(p *Proc) {
				for i := 0; i < 2; i++ {
					b.Park(p)
					log = append(log, fmt.Sprintf("%s@%v", name, p.Now()))
				}
			}
		}
		watch := func() {
			log = append(log, fmt.Sprintf("W@%v", e.Now()))
			e.Schedule(0, func() { log = append(log, "W-event") })
		}
		e.Go("A", parker("A"))
		if callback {
			e.Schedule(0, func() { b.Watch(watch) })
		} else {
			e.Go("W", func(p *Proc) {
				for {
					Await(p, b.Future())
					watch()
				}
			})
		}
		e.Go("B", parker("B"))
		e.Schedule(time.Second, b.Notify)
		e.Schedule(2*time.Second, b.Notify)
		e.Run()
		return log, e.Processed()
	}
	wantLog, wantEvents := script(false)
	gotLog, gotEvents := script(true)
	if !slices.Equal(gotLog, wantLog) || gotEvents != wantEvents {
		t.Fatalf("watch: %q (%d events), watcher proc: %q (%d events)", gotLog, gotEvents, wantLog, wantEvents)
	}
}

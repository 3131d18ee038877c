package sim

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"runtime/pprof"
	"testing"
)

// TestHaltNeverStartsAProcess: a process spawned but not yet run when
// the run is halted is finished off without its body being entered —
// nothing of it may happen after the run was declared over.
func TestHaltNeverStartsAProcess(t *testing.T) {
	k := New()
	k.Spawn("a", func(p *Proc) { k.Halt() })
	ran := false
	b := k.Spawn("b", func(p *Proc) {
		ran = true
		p.Sleep(1)
	})
	if err := k.Run(); err != nil {
		t.Fatalf("halted run returned %v, want nil", err)
	}
	if ran {
		t.Error("b's body was entered after Halt")
	}
	if !b.Done() || b.Failed() {
		t.Errorf("b state: done=%v failed=%v, want true/false", b.Done(), b.Failed())
	}
}

// TestFailBeforeFirstRun: failing a process the kernel has not reached
// yet kills it without entering its body; it is done and failed, its
// watchers hear of it in registration order, and Run has no deadlock to
// report.
func TestFailBeforeFirstRun(t *testing.T) {
	k := New()
	var got []string
	observer := k.Spawn("observer", func(p *Proc) {
		for i := 0; i < 2; i++ {
			got = append(got, p.Recv().(string))
		}
	})
	entered := false
	b := k.Spawn("b", func(p *Proc) {
		entered = true
		p.Recv()
	})
	observer.Watch(b, "first", 0.5)
	observer.Watch(b, "second", 0.5)
	k.Fail(b)
	if !b.Done() || !b.Failed() {
		t.Errorf("b state after Fail: done=%v failed=%v, want true/true", b.Done(), b.Failed())
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run returned %v, want nil", err)
	}
	if entered {
		t.Error("b's body was entered although it failed before its first run")
	}
	if len(got) != 2 || got[0] != "first" || got[1] != "second" {
		t.Errorf("notification order = %v, want registration order", got)
	}
}

// TestFailFromAnotherProcessBody: Fail called from a running process's
// body unwinds the victim — deferred cleanups included — before it
// returns, and returns to that caller, which carries on.
func TestFailFromAnotherProcessBody(t *testing.T) {
	k := New()
	r := NewResource(k, 1)
	cleaned := false
	b := k.Spawn("b", func(p *Proc) {
		r.Acquire(p)
		defer r.Release()
		defer func() { cleaned = true }()
		p.Recv() // never satisfied
	})
	finishedAt := -1.0
	k.Spawn("a", func(p *Proc) {
		p.Sleep(1)
		k.Fail(b)
		if !cleaned {
			t.Error("b's deferred cleanup had not run when Fail returned")
		}
		if r.inUse != 0 {
			t.Errorf("inUse = %d when Fail returned, b's slot leaked", r.inUse)
		}
		p.Sleep(1)
		finishedAt = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !b.Done() || !b.Failed() {
		t.Errorf("b state: done=%v failed=%v, want true/true", b.Done(), b.Failed())
	}
	if finishedAt != 2 {
		t.Errorf("a finished at t=%g, want 2", finishedAt)
	}
}

// TestNoGoroutineLeftBehind: however a run ends, it leaves no goroutine
// behind. Each ending runs fifty times, so that one coroutine leaked per
// run stands clear of a test goroutine of the framework's still exiting
// when the count was first taken (which is why fewer is not a failure).
func TestNoGoroutineLeftBehind(t *testing.T) {
	endings := []struct {
		name     string
		build    func(k *Kernel)
		deadlock bool
	}{
		{name: "every body returned", build: func(k *Kernel) {
			for i := 0; i < 3; i++ {
				k.Spawn("p", func(p *Proc) { p.Sleep(1) })
			}
		}},
		{name: "deadlock", deadlock: true, build: func(k *Kernel) {
			k.Spawn("stuck", func(p *Proc) { p.Recv() })
			k.Spawn("fine", func(p *Proc) { p.Sleep(1) })
		}},
		{name: "halt before a later process ran", build: func(k *Kernel) {
			k.Spawn("a", func(p *Proc) { k.Halt() })
			k.Spawn("b", func(p *Proc) { p.Sleep(1) })
		}},
		{name: "halt with every process parked", build: func(k *Kernel) {
			for i := 0; i < 3; i++ {
				k.Spawn("stuck", func(p *Proc) { p.Recv() })
			}
			k.At(1, k.Halt)
		}},
		{name: "failed victim", build: func(k *Kernel) {
			k.Spawn("v", func(p *Proc) { p.Sleep(10) }).FailAt(1)
		}},
	}
	for _, e := range endings {
		t.Run(e.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			for i := 0; i < 50; i++ {
				k := New()
				e.build(k)
				if _, ok := k.Run().(*deadlockError); ok != e.deadlock {
					t.Fatalf("run %d: deadlock reported = %v, want %v", i, ok, e.deadlock)
				}
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("%d goroutines after 50 runs, %d before", after, before)
			}
		})
	}
}

// TestBodyPanicSurfacesFromRun: a body that panics with a value of its
// own panics out of Run, on Run's caller's goroutine, with that value —
// the kill payload is the only one the kernel swallows.
func TestBodyPanicSurfacesFromRun(t *testing.T) {
	boom := errors.New("boom")
	k := New()
	k.Spawn("fine", func(p *Proc) { p.Sleep(1) })
	k.Spawn("bad", func(p *Proc) {
		p.Sleep(2)
		panic(boom)
	})
	defer func() {
		if r := recover(); r != boom {
			t.Errorf("recovered %v from Run, want the body's own %v", r, boom)
		}
	}()
	err := k.Run()
	t.Errorf("Run returned %v, want the body's panic", err)
}

// TestProcInheritsSpawnerProfileLabels: a process body runs under the
// pprof labels of whoever spawned it, which is what lets a CPU profile
// of a campaign attribute simulation time to its cell.
func TestProcInheritsSpawnerProfileLabels(t *testing.T) {
	const cell = "cell-under-test"
	k := New()
	var profile bytes.Buffer
	pprof.Do(context.Background(), pprof.Labels("cell", cell), func(context.Context) {
		k.Spawn("p", func(p *Proc) {
			// Only this body's goroutine can carry the label: the
			// spawner dropped it when pprof.Do returned.
			if err := pprof.Lookup("goroutine").WriteTo(&profile, 1); err != nil {
				t.Error(err)
			}
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(profile.Bytes(), []byte(cell)) {
		t.Errorf("no goroutine carried the spawner's label while the body ran:\n%s", &profile)
	}
}

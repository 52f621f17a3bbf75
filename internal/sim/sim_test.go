package sim

import (
	"testing"

	"repro/internal/faultcurve"
)

func TestSchedulerOrdersEvents(t *testing.T) {
	s := NewScheduler(1)
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	s.RunUntil(100)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if s.Now() != 100 {
		t.Errorf("Now=%v, want clamped to 100", s.Now())
	}
	if s.Steps() != 3 {
		t.Errorf("Steps=%d", s.Steps())
	}
}

func TestSchedulerFIFOAtSameTime(t *testing.T) {
	s := NewScheduler(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	s.RunUntil(5)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of scheduling order: %v", order)
		}
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler(1)
	fired := 0
	s.At(10, func() {
		s.After(5, func() { fired++ })
	})
	s.RunUntil(14)
	if fired != 0 {
		t.Error("nested event fired early")
	}
	s.RunUntil(15)
	if fired != 1 {
		t.Error("nested event did not fire")
	}
}

func TestSchedulerPastEventClamped(t *testing.T) {
	s := NewScheduler(1)
	s.RunUntil(100)
	fired := false
	s.At(50, func() { fired = true })
	s.RunUntil(100)
	if !fired {
		t.Error("past-scheduled event must fire immediately (clamped)")
	}
	if s.Now() != 100 {
		t.Errorf("Now=%v", s.Now())
	}
}

func TestSchedulerDeterminism(t *testing.T) {
	run := func() []int64 {
		s := NewScheduler(42)
		var samples []int64
		for i := 0; i < 5; i++ {
			d := Time(s.RNG().Int63n(1000))
			s.After(d, func() { samples = append(samples, int64(s.Now())) })
		}
		s.RunUntil(2000)
		return samples
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic runs: %v vs %v", a, b)
		}
	}
}

type recorder struct {
	got []any
}

func (r *recorder) Receive(from int, payload any) { r.got = append(r.got, payload) }

func TestNetworkDelivery(t *testing.T) {
	s := NewScheduler(7)
	nw := NewNetwork(s, 3, FixedDelay{D: 10}, 0)
	rs := []*recorder{{}, {}, {}}
	for i, r := range rs {
		nw.Register(i, r)
	}
	nw.Send(0, 1, "hello")
	nw.Broadcast(2, "all")
	s.RunUntil(9)
	if len(rs[1].got) != 0 {
		t.Error("delivered before delay")
	}
	s.RunUntil(10)
	if len(rs[1].got) != 2 { // "hello" + broadcast
		t.Errorf("node 1 got %v", rs[1].got)
	}
	if len(rs[0].got) != 1 || len(rs[2].got) != 0 {
		t.Errorf("broadcast wrong: %v / %v", rs[0].got, rs[2].got)
	}
	st := nw.stats
	if st.Sent != 3 || st.Delivered != 3 {
		t.Errorf("stats %+v", st)
	}
}

func TestNetworkDownNode(t *testing.T) {
	s := NewScheduler(7)
	nw := NewNetwork(s, 2, FixedDelay{D: 10}, 0)
	r := &recorder{}
	nw.Register(1, r)
	nw.Register(0, &recorder{})

	// In-flight message is lost when destination dies before delivery.
	nw.Send(0, 1, "m1")
	s.RunUntil(5)
	nw.SetDown(1, true)
	s.RunUntil(20)
	if len(r.got) != 0 {
		t.Error("message delivered to crashed node")
	}
	// Sends from a down node are cut at source.
	nw.SetDown(1, false)
	nw.SetDown(0, true)
	nw.Send(0, 1, "m2")
	s.RunUntil(40)
	if len(r.got) != 0 {
		t.Error("crashed node managed to send")
	}
	if nw.stats.Cut != 2 {
		t.Errorf("cut count %d, want 2", nw.stats.Cut)
	}
	if !nw.down[0] || nw.down[1] {
		t.Error("Down accessors wrong")
	}
}

func TestNetworkPartition(t *testing.T) {
	s := NewScheduler(7)
	nw := NewNetwork(s, 4, FixedDelay{D: 1}, 0)
	rs := make([]*recorder, 4)
	for i := range rs {
		rs[i] = &recorder{}
		nw.Register(i, rs[i])
	}
	nw.Partition([]int{0, 0, 1, 1})
	nw.Send(0, 2, "x") // across the cut
	nw.Send(0, 1, "y") // same side
	s.RunUntil(10)
	if len(rs[2].got) != 0 {
		t.Error("message crossed partition")
	}
	if len(rs[1].got) != 1 {
		t.Error("same-side message lost")
	}
	nw.Partition(nil) // heal
	nw.Send(0, 2, "z")
	s.RunUntil(20)
	if len(rs[2].got) != 1 {
		t.Error("healed partition still cutting")
	}
}

func TestNetworkLoss(t *testing.T) {
	s := NewScheduler(7)
	nw := NewNetwork(s, 2, FixedDelay{D: 1}, 0.5)
	r := &recorder{}
	nw.Register(1, r)
	nw.Register(0, &recorder{})
	const sent = 10_000
	for i := 0; i < sent; i++ {
		nw.Send(0, 1, i)
	}
	s.RunUntil(100)
	got := len(r.got)
	if got < 4500 || got > 5500 {
		t.Errorf("delivered %d of %d at 50%% loss", got, sent)
	}
	st := nw.stats
	if st.Dropped+st.Delivered != sent {
		t.Errorf("drop+deliver=%d, want %d", st.Dropped+st.Delivered, sent)
	}
}

func TestNetworkValidation(t *testing.T) {
	s := NewScheduler(1)
	defer func() {
		if recover() == nil {
			t.Error("loss >= 1 must panic")
		}
	}()
	NewNetwork(s, 2, FixedDelay{}, 1.0)
}

func TestPartitionLabelValidation(t *testing.T) {
	s := NewScheduler(1)
	nw := NewNetwork(s, 3, FixedDelay{}, 0)
	defer func() {
		if recover() == nil {
			t.Error("wrong label count must panic")
		}
	}()
	nw.Partition([]int{0, 1})
}

func TestUniformDelayBounds(t *testing.T) {
	s := NewScheduler(3)
	d := UniformDelay{Min: 10, Max: 20}
	for i := 0; i < 1000; i++ {
		v := d.Delay(s.RNG())
		if v < 10 || v > 20 {
			t.Fatalf("delay %v out of bounds", v)
		}
	}
	fixed := UniformDelay{Min: 5, Max: 5}
	if fixed.Delay(s.RNG()) != 5 {
		t.Error("degenerate uniform wrong")
	}
}

type crashDummy struct{ crashed, restarted int }

func (c *crashDummy) Crash()   { c.crashed++ }
func (c *crashDummy) Restart() { c.restarted++ }

func TestInjectorSchedule(t *testing.T) {
	s := NewScheduler(5)
	nw := NewNetwork(s, 2, FixedDelay{D: 1}, 0)
	nodes := []*crashDummy{{}, {}}
	inj := NewInjector(nw, []Crashable{nodes[0], nodes[1]})
	inj.Schedule([]Fault{
		{Node: 0, At: 100},
		{Node: 1, At: 200, Recover: 300},
	})
	s.RunUntil(150)
	if nodes[0].crashed != 1 || !nw.down[0] {
		t.Error("node 0 not crashed at 100")
	}
	if nodes[1].crashed != 0 {
		t.Error("node 1 crashed early")
	}
	s.RunUntil(250)
	if nodes[1].crashed != 1 || !nw.down[1] {
		t.Error("node 1 not crashed at 200")
	}
	s.RunUntil(350)
	if nodes[1].restarted != 1 || nw.down[1] {
		t.Error("node 1 not restarted at 300")
	}
	if nodes[0].restarted != 0 {
		t.Error("node 0 restarted without schedule")
	}
}

func TestInjectorCrashSet(t *testing.T) {
	s := NewScheduler(5)
	nw := NewNetwork(s, 3, FixedDelay{D: 1}, 0)
	nodes := []*crashDummy{{}, {}, {}}
	inj := NewInjector(nw, []Crashable{nodes[0], nodes[1], nodes[2]})
	inj.CrashSet([]int{0, 2})
	if !nw.down[0] || nw.down[1] || !nw.down[2] {
		t.Error("crash set wrong")
	}
	if nodes[0].crashed != 1 || nodes[2].crashed != 1 {
		t.Error("Crash not invoked")
	}
}

func TestSampleCrashTimesMatchesCurve(t *testing.T) {
	// Constant 50%/window hazard: about half the nodes crash in-window.
	window := Time(1000) * Second
	wh := float64(window) / float64(Second) / 3600
	rate := -1 * ln2 / wh // hazard for 50% window failure: H = ln 2
	_ = rate
	curve := faultcurve.Constant{Rate: ln2 / wh}
	const n = 4000
	curves := make([]faultcurve.Curve, n)
	for i := range curves {
		curves[i] = curve
	}
	s := NewScheduler(11)
	faults := SampleCrashTimes(curves, window, 0, s.RNG())
	frac := float64(len(faults)) / n
	if frac < 0.46 || frac > 0.54 {
		t.Errorf("crash fraction %v, want ~0.5", frac)
	}
	for i := 1; i < len(faults); i++ {
		if faults[i].At < faults[i-1].At {
			t.Fatal("faults not sorted")
		}
	}
	for _, f := range faults {
		if f.At < 0 || f.At > window {
			t.Fatalf("fault at %v outside window", f.At)
		}
		if f.Recover != 0 {
			t.Fatal("mttr=0 must mean no recovery")
		}
	}
}

func TestSampleCrashTimesWithRepair(t *testing.T) {
	window := Time(1000) * Second
	wh := float64(window) / float64(Second) / 3600
	curve := faultcurve.Constant{Rate: 5 / wh} // almost surely fails
	s := NewScheduler(13)
	faults := SampleCrashTimes([]faultcurve.Curve{curve, curve}, window, 10*Second, s.RNG())
	if len(faults) < 2 {
		t.Fatalf("expected both nodes to fail, got %d", len(faults))
	}
	for _, f := range faults {
		if f.Recover <= f.At {
			t.Errorf("recover %v not after crash %v", f.Recover, f.At)
		}
	}
}

const ln2 = 0.6931471805599453

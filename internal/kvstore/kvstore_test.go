package kvstore

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

func TestCommandCodecRoundTrip(t *testing.T) {
	for _, c := range []Command{
		{Op: "set", Key: "a", Value: "1"},
		{Op: "del", Key: "k", Value: ""},
		{Op: "set", Key: "with space", Value: "v=1;x"},
	} {
		got, err := DecodeCommand(c.Encode())
		if err != nil {
			t.Fatalf("decode(%q): %v", c.Encode(), err)
		}
		if got != c {
			t.Errorf("round trip %+v -> %+v", c, got)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, s := range []string{"", "set", "set\x1fk", "frob\x1fk\x1fv", "a\x1fb\x1fc\x1fd"} {
		if _, err := DecodeCommand(s); err == nil {
			t.Errorf("accepted %q", s)
		}
	}
}

func TestStoreAppliesInOrder(t *testing.T) {
	s := NewStore()
	if err := s.ApplySlot(0, Command{Op: "set", Key: "a", Value: "1"}.Encode()); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplySlot(1, Command{Op: "set", Key: "a", Value: "2"}.Encode()); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get("a"); !ok || v != "2" {
		t.Errorf("a=%q,%v", v, ok)
	}
	// Replay is a no-op.
	if err := s.ApplySlot(0, Command{Op: "set", Key: "a", Value: "9"}.Encode()); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get("a"); v != "2" {
		t.Error("replay mutated state")
	}
	// Gap is an error.
	if err := s.ApplySlot(5, Command{Op: "set", Key: "b", Value: "x"}.Encode()); err == nil {
		t.Error("gap accepted")
	}
	if s.next != 2 {
		t.Errorf("applied-slot watermark = %d", s.next)
	}
}

func TestStoreDelete(t *testing.T) {
	s := NewStore()
	_ = s.ApplySlot(0, Command{Op: "set", Key: "a", Value: "1"}.Encode())
	_ = s.ApplySlot(1, Command{Op: "del", Key: "a"}.Encode())
	if _, ok := s.Get("a"); ok {
		t.Error("delete did not remove key")
	}
	if len(s.data) != 0 {
		t.Errorf("%d keys left", len(s.data))
	}
}

func TestReplicatedKVEndToEnd(t *testing.T) {
	kv, err := NewCluster(3, 21, sim.UniformDelay{Min: sim.Millisecond, Max: 4 * sim.Millisecond}, 0)
	if err != nil {
		t.Fatal(err)
	}
	kv.Start()
	kv.RunFor(1 * sim.Second)
	for i := 0; i < 5; i++ {
		if !kv.Set(fmt.Sprintf("key-%d", i), fmt.Sprintf("val-%d", i)) {
			t.Fatalf("Set %d rejected", i)
		}
		kv.RunFor(200 * sim.Millisecond)
	}
	kv.Raft.ProposeAny(Command{Op: "del", Key: "key-0"}.Encode())
	kv.RunFor(2 * sim.Second)

	if err := kv.Raft.Rec.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
	if len(kv.Errors()) != 0 {
		t.Fatalf("state machine errors: %v", kv.Errors())
	}
	for r := 0; r < 3; r++ {
		if _, ok := kv.Get(r, "key-0"); ok {
			t.Errorf("replica %d still has deleted key", r)
		}
		for i := 1; i < 5; i++ {
			v, ok := kv.Get(r, fmt.Sprintf("key-%d", i))
			if !ok || v != fmt.Sprintf("val-%d", i) {
				t.Errorf("replica %d key-%d = %q,%v", r, i, v, ok)
			}
		}
		if n := len(kv.Stores[r].data); n != 4 {
			t.Errorf("replica %d has %d keys, want 4", r, n)
		}
	}
}

func TestReplicatedKVSurvivesCrashRestart(t *testing.T) {
	kv, err := NewCluster(3, 22, sim.FixedDelay{D: 2 * sim.Millisecond}, 0)
	if err != nil {
		t.Fatal(err)
	}
	kv.Start()
	kv.RunFor(1 * sim.Second)
	kv.Set("a", "1")
	kv.RunFor(500 * sim.Millisecond)

	victim := (kv.Raft.Leader() + 1) % 3
	inj := sim.NewInjector(kv.Raft.Net, kv.Raft.Crashables())
	inj.CrashSet([]int{victim})
	kv.Set("b", "2")
	kv.RunFor(1 * sim.Second)
	kv.Raft.Net.SetDown(victim, false)
	kv.Raft.Nodes[victim].Restart()
	kv.RunFor(2 * sim.Second)

	if err := kv.Raft.Rec.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
	if len(kv.Errors()) != 0 {
		t.Fatalf("state machine errors after restart: %v", kv.Errors())
	}
	// The restarted replica replays the log (idempotently) and catches up.
	for _, kvp := range []struct{ k, v string }{{"a", "1"}, {"b", "2"}} {
		got, ok := kv.Get(victim, kvp.k)
		if !ok || got != kvp.v {
			t.Errorf("restarted replica %s = %q,%v want %q", kvp.k, got, ok, kvp.v)
		}
	}
}

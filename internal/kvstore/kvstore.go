package kvstore

import (
	"fmt"
	"strings"

	"repro/internal/raft"
	"repro/internal/sim"
)

// Command is one state-machine operation.
type Command struct {
	Op    string // "set" or "del"
	Key   string
	Value string
}

// Encode renders the command as a Raft log payload.
func (c Command) Encode() string {
	return c.Op + "\x1f" + c.Key + "\x1f" + c.Value
}

// DecodeCommand parses a payload produced by Encode.
func DecodeCommand(s string) (Command, error) {
	parts := strings.Split(s, "\x1f")
	if len(parts) != 3 {
		return Command{}, fmt.Errorf("kvstore: malformed command %q", s)
	}
	c := Command{Op: parts[0], Key: parts[1], Value: parts[2]}
	if c.Op != "set" && c.Op != "del" {
		return Command{}, fmt.Errorf("kvstore: unknown op %q", c.Op)
	}
	return c, nil
}

// Store is one replica's materialised state machine. Slots must be applied
// in order; replays (after crash-restart) are ignored.
type Store struct {
	data map[string]string
	next int
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{data: make(map[string]string)}
}

// ApplySlot applies the command at the given slot. Slots below the applied
// watermark are replay and ignored; gaps are an error (Raft applies in
// order, so a gap means the caller broke the contract).
func (s *Store) ApplySlot(slot int, payload string) error {
	if slot < s.next {
		return nil // replay after restart
	}
	if slot > s.next {
		return fmt.Errorf("kvstore: slot gap: got %d, expected %d", slot, s.next)
	}
	cmd, err := DecodeCommand(payload)
	if err != nil {
		return err
	}
	switch cmd.Op {
	case "set":
		s.data[cmd.Key] = cmd.Value
	case "del":
		delete(s.data, cmd.Key)
	}
	s.next++
	return nil
}

// Get reads a key.
func (s *Store) Get(key string) (string, bool) {
	v, ok := s.data[key]
	return v, ok
}

// Cluster is a replicated KV service: a Raft cluster with one Store per
// node.
type Cluster struct {
	Raft   *raft.Cluster
	Stores []*Store
	errs   []error
}

// NewCluster builds an n-node replicated KV store.
func NewCluster(n int, seed int64, delay sim.DelayModel, loss float64) (*Cluster, error) {
	kv := &Cluster{}
	for i := 0; i < n; i++ {
		kv.Stores = append(kv.Stores, NewStore())
	}
	rc, err := raft.NewClusterWithHook(raft.Config{N: n}, seed, delay, loss,
		func(node, slot int, e raft.Entry) {
			if err := kv.Stores[node].ApplySlot(slot, e.Cmd); err != nil {
				kv.errs = append(kv.errs, err)
			}
		})
	if err != nil {
		return nil, err
	}
	kv.Raft = rc
	return kv, nil
}

// Start boots the cluster.
func (c *Cluster) Start() { c.Raft.Start() }

// RunFor advances virtual time.
func (c *Cluster) RunFor(d sim.Time) { c.Raft.RunFor(d) }

// Set proposes a write through the current leader; false means no leader
// was available (retry after running the scheduler).
func (c *Cluster) Set(key, value string) bool {
	return c.Raft.ProposeAny(Command{Op: "set", Key: key, Value: value}.Encode())
}

// Get reads from one replica's store (stale reads are possible by design —
// reads do not go through the log).
func (c *Cluster) Get(replica int, key string) (string, bool) {
	return c.Stores[replica].Get(key)
}

// Errors returns state-machine application errors (always empty in a
// correct run).
func (c *Cluster) Errors() []error { return c.errs }

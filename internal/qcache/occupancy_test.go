package qcache

import "testing"

// Byte occupancy: one shard so eviction order is deterministic, a sizer
// counting value bytes, so every entry costs len(key)+len(value). Nothing
// overwrites a cached key — a value enters only when its own flight
// resolves — so a hit on a cached key moves no bytes.
func TestBytesTracksInsertUpdateEvict(t *testing.T) {
	c := New[string](2, 1).WithSizer(func(v string) int { return len(v) })

	mustDo(t, c, "aa", "xxxx") // 2+4 = 6
	if got := c.Bytes(); got != 6 {
		t.Fatalf("after insert: Bytes() = %d, want 6", got)
	}
	if v, cached, _ := c.Do("aa", func() (string, error) { return "x", nil }); !cached || v != "xxxx" {
		t.Fatalf("Do on a cached key = %q, cached %v; want the cached \"xxxx\"", v, cached)
	}
	if got := c.Bytes(); got != 6 {
		t.Fatalf("after a hit: Bytes() = %d, want 6", got)
	}
	mustDo(t, c, "bb", "yyy") // +5 = 11
	if got := c.Bytes(); got != 11 {
		t.Fatalf("after second insert: Bytes() = %d, want 11", got)
	}
	mustDo(t, c, "cc", "zz") // evicts LRU "aa" (-6), +4 = 9
	if got := c.Bytes(); got != 9 {
		t.Fatalf("after eviction: Bytes() = %d, want 9", got)
	}
	if _, ok := c.Get("aa"); ok {
		t.Fatal("aa survived eviction")
	}

	st := c.Stats()
	if st.Bytes != 9 || st.Entries != 2 {
		t.Fatalf("Stats: bytes=%d entries=%d, want 9/2", st.Bytes, st.Entries)
	}
	if len(st.PerShard) != 1 || st.PerShard[0].Bytes != 9 || st.PerShard[0].Entries != 2 {
		t.Fatalf("PerShard = %+v, want one shard with 2 entries / 9 bytes", st.PerShard)
	}
}

func TestBytesWithoutSizerCountsKeys(t *testing.T) {
	c := New[int](4, 1)
	mustDo(t, c, "abc", 1)
	mustDo(t, c, "de", 2)
	if got := c.Bytes(); got != 5 {
		t.Fatalf("Bytes() = %d, want 5 (key bytes only)", got)
	}
}

// Range calls fn for every cached entry, most recently used first within
// each shard, stopping early when fn returns false. Each shard's entries
// are snapshotted under its lock and fn runs outside it, so fn may use
// the cache; entries inserted or evicted concurrently may or may not be
// seen. Only the tests walk a cache this way.
func (c *Cache[V]) Range(fn func(key string, val V) bool) {
	for _, s := range c.shards {
		s.mu.Lock()
		snap := make([]entry[V], 0, s.order.Len())
		for el := s.order.Front(); el != nil; el = el.Next() {
			snap = append(snap, *el.Value.(*entry[V]))
		}
		s.mu.Unlock()
		for i := range snap {
			if !fn(snap[i].key, snap[i].val) {
				return
			}
		}
	}
}

func TestRangeSeesEntriesAndStopsEarly(t *testing.T) {
	c := New[string](8, 2)
	want := map[string]string{"a": "1", "b": "2", "c": "3"}
	for k, v := range want {
		mustDo(t, c, k, v)
	}
	got := map[string]string{}
	c.Range(func(key, val string) bool {
		got[key] = val
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range saw %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Range entry %q = %q, want %q", k, got[k], v)
		}
	}
	calls := 0
	c.Range(func(string, string) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Fatalf("Range after early stop made %d calls, want 1", calls)
	}
}

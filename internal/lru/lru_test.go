package lru

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// byLen prices a string value at its length: a cache bounded in bytes.
func byLen(s string) int64 { return int64(len(s)) }

// audit walks the cache under its own lock and checks what no sequence
// of public calls can observe atomically: the list and the map hold the
// same entries, Cost is the sum of the resident values' prices, and the
// bound holds.
func audit[K comparable, V any](t *testing.T, c *Cache[K, V]) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int
	var sum int64
	for e := c.root.next; e != &c.root; e = e.next {
		if c.m[e.key] != e {
			t.Errorf("listed entry %v is not the one the map holds", e.key)
		}
		want := int64(1)
		if c.cost != nil {
			want = c.cost(e.val)
		}
		if e.cost != want {
			t.Errorf("entry %v priced %d, its value costs %d", e.key, e.cost, want)
		}
		n++
		sum += e.cost
	}
	if n != len(c.m) || sum != c.total {
		t.Errorf("list holds %d entries costing %d; map holds %d, total says %d", n, sum, len(c.m), c.total)
	}
	if c.total > c.bound {
		t.Errorf("cost %d exceeds bound %d", c.total, c.bound)
	}
}

// TestConcurrentInvariants is the one property test behind every cache in
// the stack: goroutines mix Get, Put, Delete and Stats on a count-bounded
// and a byte-bounded cache while an auditor checks the structure, and
// every snapshot any of them takes is consistent. Run under -race.
func TestConcurrentInvariants(t *testing.T) {
	for _, tc := range []struct {
		name  string
		bound int64
		cost  func(string) int64
	}{
		{"entries", 16, nil},
		{"bytes", 96, byLen},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New[int](tc.bound, tc.cost)
			const workers, ops, keys = 8, 4000, 64
			var gets atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					var last Stats
					for i := 0; i < ops; i++ {
						k := rng.Intn(keys)
						switch rng.Intn(8) {
						case 0, 1, 2:
							// Values of 1..40 bytes: a few exceed what is
							// left of a 96-byte budget, none the budget.
							c.Put(k, fmt.Sprintf("%0*d", 1+rng.Intn(40), k))
						case 3:
							c.Delete(k)
						case 4:
							st := c.Stats()
							if int64(st.Entries) > tc.bound || st.Cost > tc.bound || st.Cost < int64(st.Entries) {
								t.Errorf("snapshot %+v breaks bound %d", st, tc.bound)
							}
							if st.Hits < last.Hits || st.Misses < last.Misses || st.Evictions < last.Evictions {
								t.Errorf("counters went backwards: %+v after %+v", st, last)
							}
							last = st
						default:
							gets.Add(1)
							if v, ok := c.Get(k); ok && v[len(v)-1] != byte('0'+k%10) {
								t.Errorf("key %d returned another key's value %q", k, v)
							}
						}
					}
				}(int64(w + 1))
			}
			stop := make(chan struct{})
			audited := make(chan struct{})
			go func() {
				defer close(audited)
				for {
					select {
					case <-stop:
						return
					default:
						audit(t, c)
					}
				}
			}()
			wg.Wait()
			close(stop)
			<-audited

			audit(t, c)
			st := c.Stats()
			if st.Hits+st.Misses != gets.Load() {
				t.Errorf("hits %d + misses %d != %d gets issued", st.Hits, st.Misses, gets.Load())
			}
			if st.Evictions == 0 {
				t.Error("the workload never filled the cache; the test exercised no eviction")
			}
			var n int
			var sum int64
			c.Each(func(_ int, v string) {
				n++
				if tc.cost != nil {
					sum += tc.cost(v)
				} else {
					sum++
				}
			})
			if n != st.Entries || sum != st.Cost {
				t.Errorf("Each saw %d entries costing %d, Stats says %d / %d", n, sum, st.Entries, st.Cost)
			}
		})
	}
}

func keysOf[V any](c *Cache[string, V]) []string {
	ks := []string{}
	c.Each(func(k string, _ V) { ks = append(ks, k) })
	return ks
}

// TestRecencyOrder pins the order Each reports (least recently used
// first — what a session export's idempotency list relies on) and that
// eviction takes from that end: a Get or a re-Put refreshes its key.
func TestRecencyOrder(t *testing.T) {
	c := New[string, int](3, nil)
	for i, k := range []string{"a", "b", "c"} {
		c.Put(k, i)
	}
	if got := keysOf(c); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("Each order %v, want insertion order", got)
	}
	c.Get("a")
	c.Put("b", 10)
	if got := keysOf(c); !reflect.DeepEqual(got, []string{"c", "a", "b"}) {
		t.Fatalf("Each order %v after Get(a), Put(b); want [c a b]", got)
	}
	c.Put("d", 3) // over capacity: c is the least recently used
	if got := keysOf(c); !reflect.DeepEqual(got, []string{"a", "b", "d"}) {
		t.Errorf("Each order %v after an eviction, want [a b d]", got)
	}
	if _, ok := c.Get("c"); ok {
		t.Error("the least recently used entry survived an over-capacity Put")
	}
	if v, _ := c.Get("b"); v != 10 {
		t.Errorf("re-Put did not replace the value: got %d", v)
	}
	want := Stats{Hits: 2, Misses: 1, Evictions: 1, Entries: 3, Cost: 3}
	if st := c.Stats(); st != want {
		t.Errorf("stats %+v, want %+v", st, want)
	}
	if n := c.Purge(); n != 3 {
		t.Errorf("Purge dropped %d, want 3", n)
	}
	want.Entries, want.Cost = 0, 0
	if st := c.Stats(); st != want || len(keysOf(c)) != 0 {
		t.Errorf("after Purge: stats %+v (want %+v), keys %v", st, want, keysOf(c))
	}
	c.Put("e", 4)
	if got := keysOf(c); !reflect.DeepEqual(got, []string{"e"}) {
		t.Errorf("cache unusable after Purge: %v", got)
	}
}

// TestCostBudget pins the pricing rules of a byte-bounded cache: a re-Put
// re-prices its key, one Put may evict several entries, and a value that
// alone exceeds the budget is not retained — nor is what its key held.
func TestCostBudget(t *testing.T) {
	c := New[string](10, byLen)
	c.Put("a", "xxxx")
	c.Put("b", "yyyy")
	c.Put("a", "x") // re-priced 4 -> 1
	if st := c.Stats(); st.Entries != 2 || st.Cost != 5 {
		t.Fatalf("after re-pricing: %+v, want 2 entries costing 5", st)
	}
	c.Put("c", "zzzzzzzzzz") // the whole budget: both older entries must go
	if got, st := keysOf(c), c.Stats(); !reflect.DeepEqual(got, []string{"c"}) || st.Cost != 10 || st.Evictions != 2 {
		t.Fatalf("after a 10-byte Put: keys %v stats %+v, want [c], cost 10, 2 evictions", got, st)
	}
	c.Put("c", "01234567890") // 11 > 10
	if st := c.Stats(); st.Entries != 0 || st.Cost != 0 || st.Evictions != 2 {
		t.Errorf("an over-budget value was retained, or left its key's old value: %+v", st)
	}
	if c.Delete("c") {
		t.Error("Delete found a key that an over-budget Put should have emptied")
	}
	c.Put("d", "dd")
	if !c.Delete("d") || c.Delete("d") || c.Stats().Cost != 0 {
		t.Error("Delete did not drop a resident key exactly once")
	}

	off := New[string](-1, byLen)
	off.Put("a", "x")
	if _, ok := off.Get("a"); ok || off.Stats().Entries != 0 {
		t.Error("a cache with a negative bound retained a value")
	}
}

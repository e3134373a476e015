// Package lru is the one bounded cache in the stack: every memo and
// registry that may forget an entry — the clc program cache (which serves
// ocl's builds and the workloads' kernels alike), dopiad's
// per-session idempotency cache, its program registry, the router's
// source registry, the online learner's oracle-sweep memo and per-tenant
// signature sets, each kernel's model memo in sched, and the workloads'
// input memo — is an instance of Cache, so there is one eviction policy,
// one accounting rule and one stats struct to test.
package lru

import "sync"

// Cache maps keys to values under a cost budget and forgets the least
// recently used entries when the budget is exceeded. A Get or a Put
// makes its key the most recently used. All methods are safe for
// concurrent use.
type Cache[K comparable, V any] struct {
	mu    sync.Mutex
	bound int64
	cost  func(V) int64
	m     map[K]*entry[K, V]
	// root is the sentinel of a circular list ordered by recency:
	// root.next is the most recently used entry, root.prev the least.
	root  entry[K, V]
	total int64

	hits, misses, evictions int64
}

type entry[K comparable, V any] struct {
	prev, next *entry[K, V]
	key        K
	val        V
	cost       int64
}

// Stats is a consistent snapshot of one cache: every field is read under
// the lock that Get, Put, Delete and Purge mutate them under.
type Stats struct {
	// Hits and Misses count Get calls that found and did not find their
	// key.
	Hits, Misses int64
	// Evictions counts entries dropped to make room. Delete and Purge
	// are the caller's doing and are not counted.
	Evictions int64
	// Entries is the number of resident entries, Cost the sum of their
	// costs; Cost never exceeds the bound.
	Entries int
	Cost    int64
}

// New returns an empty cache holding at most bound units of cost. cost
// prices one value (bytes, say); nil prices every value at 1, which
// bounds the cache by entry count. A bound below the cheapest value
// gives a cache that retains nothing.
func New[K comparable, V any](bound int64, cost func(V) int64) *Cache[K, V] {
	c := &Cache[K, V]{bound: bound, cost: cost, m: map[K]*entry[K, V]{}}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Get returns the value stored under k and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[k]
	if !ok {
		c.misses++
		return v, false
	}
	c.hits++
	c.unlink(e)
	c.pushFront(e)
	return e.val, true
}

// Put stores v under k as the most recently used entry, replacing and
// re-pricing whatever k held, then evicts least recently used entries
// until the total cost fits the bound. A value that alone costs more
// than the bound is not retained (and k is left empty).
func (c *Cache[K, V]) Put(k K, v V) {
	cost := int64(1)
	if c.cost != nil {
		cost = c.cost(v)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[k]; ok {
		c.remove(e)
	}
	if cost > c.bound {
		return
	}
	e := &entry[K, V]{key: k, val: v, cost: cost}
	c.m[k] = e
	c.pushFront(e)
	c.total += cost
	for c.total > c.bound {
		c.remove(c.root.prev)
		c.evictions++
	}
}

// Delete drops k and reports whether it was resident.
func (c *Cache[K, V]) Delete(k K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[k]
	if ok {
		c.remove(e)
	}
	return ok
}

// Purge drops every entry and reports how many there were.
func (c *Cache[K, V]) Purge() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.m)
	clear(c.m)
	c.root.prev, c.root.next = &c.root, &c.root
	c.total = 0
	return n
}

// Each calls fn for every resident entry, least recently used first,
// without counting as a use. It iterates a snapshot taken under the
// lock, so fn may call back into the cache.
func (c *Cache[K, V]) Each(fn func(K, V)) {
	c.mu.Lock()
	snap := make([]*entry[K, V], 0, len(c.m))
	for e := c.root.prev; e != &c.root; e = e.prev {
		snap = append(snap, e)
	}
	c.mu.Unlock()
	for _, e := range snap {
		fn(e.key, e.val)
	}
}

// Stats snapshots the cache's traffic and occupancy.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   len(c.m),
		Cost:      c.total,
	}
}

func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = &c.root, c.root.next
	e.prev.next, e.next.prev = e, e
}

// remove takes a resident entry out of the map, the list and the total.
func (c *Cache[K, V]) remove(e *entry[K, V]) {
	delete(c.m, e.key)
	c.unlink(e)
	c.total -= e.cost
}

// Package cluster is the horizontal tier of dopiad: a router that
// places tenant sessions on a ring of dopia-serve nodes by consistent
// hashing, probes every node's /healthz for its health and
// program-registry contents, replicates session state to a
// successor node, and fails sessions over — with idempotency keys
// making retried launches apply exactly once — when a node dies
// mid-launch. Every launch on every node still runs the full
// single-node stack (admission queue, fail-open ladder, watchdog);
// this package only decides *where* a session lives and keeps a second
// bit-identical copy of it alive somewhere else.
//
// The paper's online framework makes this cheap: programs are
// content-addressed (p-<sha256>) so any node can serve any program
// after one re-push, and launches are self-contained one-shot
// decisions, so replication is just deterministic re-execution.
package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
)

// Ring is a consistent-hash ring with virtual nodes. Each member
// contributes vnodes points; a key is served by the first distinct
// healthy members clockwise from its hash. Ties between points with
// equal hash values (possible across members) are broken by rendezvous
// hashing — highest-random-weight of (member, key) — so equal points
// still yield a deterministic, key-dependent order instead of
// favoring whichever member sorts first.
type Ring struct {
	vnodes int

	mu      sync.RWMutex
	members map[string]struct{}
	points  []point // sorted by (hash, member)
}

type point struct {
	hash uint64
	node string
}

// NewRing creates an empty ring with the given virtual-node count per
// member (<=0 defaults to 64).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	return &Ring{vnodes: vnodes, members: map[string]struct{}{}}
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer. FNV-1a alone has weak avalanche
// on short strings that differ only in a trailing vnode index, which
// clusters a member's virtual nodes into a few arcs and skews the
// ring badly; the finalizer spreads them uniformly.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// rendezvous is the highest-random-weight score of a (member, key)
// pair, used to break equal-hash ties deterministically per key.
func rendezvous(member, key string) uint64 {
	return hash64(member + "\x00" + key)
}

// Add inserts a member and its virtual nodes. Idempotent.
func (r *Ring) Add(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[member]; ok {
		return
	}
	r.members[member] = struct{}{}
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, point{hash: hash64(member + "#" + strconv.Itoa(i)), node: member})
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].node < r.points[b].node
	})
}

// Remove deletes a member and its virtual nodes.
func (r *Ring) Remove(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[member]; !ok {
		return
	}
	delete(r.members, member)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != member {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Members lists the ring members, sorted.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.members))
	for m := range r.members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Size reports the member count.
func (r *Ring) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// Place returns up to n distinct members for key, walking clockwise
// from the key's hash and skipping members healthy() rejects (nil
// accepts everyone). The first member is the key's primary, the second
// its replication successor, and so on. Equal-hash point runs are
// ordered by rendezvous score for the key.
func (r *Ring) Place(key string, n int, healthy func(string) bool) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if n <= 0 || len(r.points) == 0 {
		return nil
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if start == len(r.points) {
		start = 0
	}

	out := make([]string, 0, n)
	seen := make(map[string]bool, len(r.members))
	i := start
	for visited := 0; visited < len(r.points) && len(out) < n; {
		// Collect the run of points sharing one hash value, then order
		// the run by rendezvous weight for this key.
		run := []point{r.points[i]}
		j := (i + 1) % len(r.points)
		visited++
		for visited < len(r.points) && r.points[j].hash == r.points[i].hash {
			run = append(run, r.points[j])
			j = (j + 1) % len(r.points)
			visited++
		}
		if len(run) > 1 {
			sort.Slice(run, func(a, b int) bool {
				ra, rb := rendezvous(run[a].node, key), rendezvous(run[b].node, key)
				if ra != rb {
					return ra > rb
				}
				return run[a].node < run[b].node
			})
		}
		for _, p := range run {
			if len(out) >= n {
				break
			}
			if seen[p.node] {
				continue
			}
			seen[p.node] = true
			if healthy == nil || healthy(p.node) {
				out = append(out, p.node)
			}
		}
		i = j
	}
	return out
}

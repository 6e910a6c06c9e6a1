package control

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultRingReplicas is the virtual-node count per collector on the
// placement ring. More replicas smooth the load split across collectors
// at the cost of a larger (still tiny) sorted point set.
const DefaultRingReplicas = 64

// HashRing places agents onto collectors by consistent hashing on the
// agent name. Each collector owns DefaultRingReplicas points on a 64-bit
// ring; an agent belongs to the collector owning the first point at or
// after the agent's own hash. The two properties the cluster tier leans
// on:
//
//   - bounded churn: adding or removing one collector re-homes only the
//     agents whose owning points moved — about K/N of K agents across N
//     collectors — and never shuffles agents between surviving collectors;
//   - roster-order independence: the ring is a pure function of the
//     member set, so every dispatcher replica computes identical
//     placements no matter the order collectors joined.
type HashRing struct {
	points []ringPoint
	nodes  map[string]struct{}
}

type ringPoint struct {
	hash uint64
	node string
}

// NewHashRing returns an empty ring.
func NewHashRing() *HashRing {
	return &HashRing{nodes: make(map[string]struct{})}
}

func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	// FNV alone clusters similar strings ("col-2#0".."col-2#63" come out
	// nearly consecutive), which would give some collectors empty arcs.
	// A splitmix64 finalizer scatters the values to full avalanche.
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Add inserts a collector's virtual nodes. Adding a present member is a
// no-op.
func (r *HashRing) Add(node string) {
	if _, ok := r.nodes[node]; ok {
		return
	}
	r.nodes[node] = struct{}{}
	for i := 0; i < DefaultRingReplicas; i++ {
		r.points = append(r.points, ringPoint{hash: ringHash(node + "#" + strconv.Itoa(i)), node: node})
	}
	// Ties on the hash value break by node name, so the sorted point set
	// (and therefore every placement) is independent of insertion order.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
}

// Remove deletes a collector's virtual nodes. Removing an absent member
// is a no-op.
func (r *HashRing) Remove(node string) {
	if _, ok := r.nodes[node]; !ok {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Owner returns the collector owning the given agent name, or false when
// the ring is empty.
func (r *HashRing) Owner(agent string) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	h := ringHash(agent)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the highest point
	}
	return r.points[i].node, true
}

package control

import (
	"fmt"
	"testing"
)

func ringCols(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("col-%d", i)
	}
	return out
}

func ringAgentNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("agent-%03d", i)
	}
	return out
}

func ownersOf(r *HashRing, agents []string) map[string]string {
	out := make(map[string]string, len(agents))
	for _, a := range agents {
		o, ok := r.Owner(a)
		if !ok {
			panic("ring has nodes but no owner for " + a)
		}
		out[a] = o
	}
	return out
}

// TestRingOwnerIndependentOfInsertionOrder: placement is a pure function
// of the roster set, not the order collectors joined — two dispatchers
// that learned the roster in different orders agree on every agent's
// home, which is what makes re-homing decisions reproducible.
func TestRingOwnerIndependentOfInsertionOrder(t *testing.T) {
	cols := ringCols(5)
	agents := ringAgentNames(200)

	fwd := NewHashRing()
	for _, c := range cols {
		fwd.Add(c)
	}
	rev := NewHashRing()
	for i := len(cols) - 1; i >= 0; i-- {
		rev.Add(cols[i])
	}
	of, or := ownersOf(fwd, agents), ownersOf(rev, agents)
	for _, a := range agents {
		if of[a] != or[a] {
			t.Fatalf("agent %s: forward roster homes %s, reverse homes %s", a, of[a], or[a])
		}
	}
}

// TestRingRemoveMovesOnlyOwnedAgents: the exact consistent-hashing
// property a failure handoff relies on — removing collector X re-homes
// X's agents and does not move anyone else. Every survivor keeps its
// assignment, so a collector crash never churns unrelated ledgers.
func TestRingRemoveMovesOnlyOwnedAgents(t *testing.T) {
	cols := ringCols(4)
	agents := ringAgentNames(300)
	r := NewHashRing()
	for _, c := range cols {
		r.Add(c)
	}
	before := ownersOf(r, agents)
	for _, dead := range cols {
		r2 := NewHashRing()
		for _, c := range cols {
			r2.Add(c)
		}
		r2.Remove(dead)
		after := ownersOf(r2, agents)
		for _, a := range agents {
			switch {
			case before[a] == dead:
				if after[a] == dead {
					t.Fatalf("agent %s still owned by removed %s", a, dead)
				}
			case before[a] != after[a]:
				t.Fatalf("agent %s moved %s -> %s though %s was removed",
					a, before[a], after[a], dead)
			}
		}
	}
}

// TestRingBoundedChurnOnJoin: adding one collector to N moves roughly
// K/(N+1) of K agents — bounded churn, the scaling property the issue
// pins down. Every moved agent must land on the newcomer (joins only
// pull load, never shuffle it between incumbents), and with 64 vnodes
// the moved count stays within 2x of the ideal share.
func TestRingBoundedChurnOnJoin(t *testing.T) {
	const nAgents = 1000
	agents := ringAgentNames(nAgents)
	for _, n := range []int{2, 3, 4, 8} {
		cols := ringCols(n)
		r := NewHashRing()
		for _, c := range cols {
			r.Add(c)
		}
		before := ownersOf(r, agents)
		r.Add("col-new")
		after := ownersOf(r, agents)
		moved := 0
		for _, a := range agents {
			if before[a] != after[a] {
				moved++
				if after[a] != "col-new" {
					t.Fatalf("n=%d: agent %s moved %s -> %s, not to the joining node",
						n, a, before[a], after[a])
				}
			}
		}
		bound := 2 * nAgents / (n + 1)
		if moved == 0 || moved > bound {
			t.Fatalf("n=%d: %d agents moved on join, want (0, %d]", n, moved, bound)
		}
	}
}

// TestRingSpreadsLoad: with vnodes, no collector owns a wildly
// disproportionate share (each of 4 collectors gets at least a tenth of
// a uniform agent population — loose, but catches a broken hash).
func TestRingSpreadsLoad(t *testing.T) {
	agents := ringAgentNames(1000)
	r := NewHashRing()
	cols := ringCols(4)
	for _, c := range cols {
		r.Add(c)
	}
	counts := make(map[string]int)
	for _, a := range agents {
		o, _ := r.Owner(a)
		counts[o]++
	}
	for _, c := range cols {
		if counts[c] < len(agents)/10 {
			t.Fatalf("collector %s owns only %d of %d agents", c, counts[c], len(agents))
		}
	}
}

// TestRingEdgeCases: empty ring has no owner; a single node owns
// everything; duplicate Add and absent Remove are no-ops.
func TestRingEdgeCases(t *testing.T) {
	r := NewHashRing()
	if _, ok := r.Owner("a"); ok {
		t.Fatal("empty ring claims an owner")
	}
	r.Add("only")
	r.Add("only") // duplicate: no-op
	if len(r.points) != DefaultRingReplicas {
		t.Fatalf("%d points after duplicate Add, want %d", len(r.points), DefaultRingReplicas)
	}
	for _, a := range ringAgentNames(50) {
		if o, ok := r.Owner(a); !ok || o != "only" {
			t.Fatalf("single-node ring: Owner(%s) = %q, %v", a, o, ok)
		}
	}
	r.Remove("absent") // no-op
	if len(r.points) != DefaultRingReplicas || len(r.nodes) != 1 {
		t.Fatalf("absent Remove changed the ring: %d points, %d nodes", len(r.points), len(r.nodes))
	}
	r.Remove("only")
	if _, ok := r.Owner("a"); ok || len(r.nodes) != 0 {
		t.Fatal("drained ring still owns agents")
	}
}

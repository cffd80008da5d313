package testbed

import (
	"math"
	"math/rand"
	"testing"

	"nplus/internal/cmplxmat"
	"nplus/internal/mac"
)

// sameBits reports whether two matrices have the same shape and
// bit-identical entries.
func sameBits(a, b *cmplxmat.Matrix) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			x, y := a.At(i, j), b.At(i, j)
			if math.Float64bits(real(x)) != math.Float64bits(real(y)) ||
				math.Float64bits(imag(x)) != math.Float64bits(imag(y)) {
				return false
			}
		}
	}
	return true
}

func sameBatch(a, b []*cmplxmat.Matrix) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !sameBits(a[k], b[k]) {
			return false
		}
	}
	return true
}

func isZeroBatch(h []*cmplxmat.Matrix) bool {
	for _, m := range h {
		if m.MaxAbs() != 0 {
			return false
		}
	}
	return true
}

// checkPairs asserts the slot-table invariants over every ordered live
// pair: Channel(b,a) is the bit-exact transpose of Channel(a,b), a fork
// that re-derives every response from an empty cache (walking the
// pairs in the opposite order) answers identically, and the link
// budget is symmetric.
func checkPairs(t *testing.T, d *Deployment) {
	t.Helper()
	ids := d.LiveIDs()
	f := d.Fork()
	f.freq = make(map[[2]mac.NodeID][]*cmplxmat.Matrix)
	for i := len(ids) - 1; i >= 0; i-- {
		for j := len(ids) - 1; j >= 0; j-- {
			if i != j {
				f.Channel(ids[i], ids[j])
			}
		}
	}
	for _, a := range ids {
		for _, b := range ids {
			if a == b {
				continue
			}
			fwd, rev := d.Channel(a, b), d.Channel(b, a)
			for k := range fwd {
				if !sameBits(rev[k], fwd[k].Transpose()) {
					t.Fatalf("channel %d→%d bin %d is not the bit-exact transpose of %d→%d", b, a, k, a, b)
				}
			}
			if !sameBatch(f.Channel(a, b), fwd) {
				t.Fatalf("fork answers channel %d→%d differently", a, b)
			}
			if d.HearingSNRDB(a, b) != d.HearingSNRDB(b, a) {
				t.Fatalf("link budget %d↔%d is asymmetric", a, b)
			}
		}
	}
}

func TestSlotTableDenseDeploy(t *testing.T) {
	d := deployTrio(t, 4)
	checkPairs(t, d)

	rng := rand.New(rand.NewSource(8))
	old := map[[2]mac.NodeID][]*cmplxmat.Matrix{}
	for _, p := range []mac.NodeID{1, 12} {
		old[[2]mac.NodeID{2, p}] = d.Channel(2, p)
		old[[2]mac.NodeID{p, 2}] = d.Channel(p, 2)
	}
	if err := d.RemoveNode(2); err != nil {
		t.Fatal(err)
	}
	if err := d.AddNodeAt(rng, NodeSpec{ID: 21, Antennas: 2}, Point{X: 3, Y: 4}); err != nil {
		t.Fatal(err)
	}
	if d.idx[21] != 1 {
		t.Fatalf("node 21 took slot %d, want the freed slot 1", d.idx[21])
	}
	for pair, h := range old {
		from, to := pair[0], pair[1]
		if from == 2 {
			from = 21
		} else {
			to = 21
		}
		if sameBatch(d.Channel(from, to), h) {
			t.Fatalf("recycled slot serves %d→%d with the previous occupant's channel", from, to)
		}
	}
	checkPairs(t, d)

	stride := d.stride
	if err := d.AddNodeAt(rng, NodeSpec{ID: 22, Antennas: 3}, Point{X: 9, Y: 1}); err != nil {
		t.Fatal(err)
	}
	if d.stride <= stride {
		t.Fatalf("stride %d after a full-table arrival, want growth past %d", d.stride, stride)
	}
	checkPairs(t, d)
}

// clusterFixture deploys two four-node clusters 500 m apart behind
// 40 dB of wall loss under a sparse link model, so every cross-cluster
// pair keeps only its gain. cell assigns arrivals to a cluster for the
// extra-loss model.
func clusterFixture(t *testing.T) (*Deployment, map[mac.NodeID]int) {
	t.Helper()
	tb, err := New(1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cell := map[mac.NodeID]int{}
	pos := map[mac.NodeID]Point{}
	var nodes []NodeSpec
	for i := 0; i < 8; i++ {
		id := mac.NodeID(i + 1)
		c := i / 4
		cell[id] = c
		pos[id] = Point{X: float64(500*c + 3*(i%4)), Y: float64(2 * (i % 2))}
		nodes = append(nodes, NodeSpec{ID: id, Antennas: 1 + i%3})
	}
	d, err := tb.DeployAtModel(rand.New(rand.NewSource(5)), nodes, pos, LinkModel{
		ExtraLossDB: func(a, b mac.NodeID) float64 {
			if cell[a] == cell[b] {
				return 0
			}
			return 40
		},
		SparseSNRDB: -40,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, cell
}

func TestSlotTableSparseDeploy(t *testing.T) {
	d, cell := clusterFixture(t)
	checkPairs(t, d)
	if isZeroBatch(d.Channel(1, 2)) || !isZeroBatch(d.Channel(1, 5)) {
		t.Fatal("fixture: want in-cluster channels drawn and cross-cluster ones skipped")
	}

	rng := rand.New(rand.NewSource(9))
	// Far points lie below the sparse floor to everyone, each other
	// included.
	far := func(k float64) Point { return Point{X: 5000 * k, Y: -5000 * k} }

	// The same id comes back far away in its old slot: every pair it
	// had (cached responses included) must now read as zero.
	if err := d.RemoveNode(2); err != nil {
		t.Fatal(err)
	}
	if err := d.AddNodeAt(rng, NodeSpec{ID: 2, Antennas: 2}, far(1)); err != nil {
		t.Fatal(err)
	}
	// A new id takes a freed slot, also far away.
	if err := d.RemoveNode(3); err != nil {
		t.Fatal(err)
	}
	if err := d.AddNodeAt(rng, NodeSpec{ID: 9, Antennas: 1}, far(2)); err != nil {
		t.Fatal(err)
	}
	if d.idx[9] != 2 {
		t.Fatalf("node 9 took slot %d, want the freed slot 2", d.idx[9])
	}
	for _, id := range []mac.NodeID{2, 9} {
		for _, p := range d.LiveIDs() {
			if p != id && (!isZeroBatch(d.Channel(id, p)) || !isZeroBatch(d.Channel(p, id))) {
				t.Fatalf("far node %d serves a stale channel with %d", id, p)
			}
		}
	}
	checkPairs(t, d)

	// Free a slot in cluster 1, refill it far away, then arrive past
	// the stride: the regrown table must keep every untouched pair and
	// carry no cell of the freed slot's previous occupant.
	keep := map[[2]mac.NodeID][]*cmplxmat.Matrix{}
	for _, a := range []mac.NodeID{1, 4, 5, 7, 8} {
		for _, b := range []mac.NodeID{1, 4, 5, 7, 8} {
			if a != b {
				keep[[2]mac.NodeID{a, b}] = d.Channel(a, b)
			}
		}
	}
	if err := d.RemoveNode(6); err != nil {
		t.Fatal(err)
	}
	cell[10] = 1
	if err := d.AddNodeAt(rng, NodeSpec{ID: 10, Antennas: 3}, far(3)); err != nil {
		t.Fatal(err)
	}
	stride := d.stride
	cell[11] = 1
	if err := d.AddNodeAt(rng, NodeSpec{ID: 11, Antennas: 2}, Point{X: 504, Y: 3}); err != nil {
		t.Fatal(err)
	}
	if d.stride <= stride {
		t.Fatalf("stride %d after a full-table arrival, want growth past %d", d.stride, stride)
	}
	// Drop the response cache so every answer is re-derived from the
	// regrown slot table.
	d.freq = make(map[[2]mac.NodeID][]*cmplxmat.Matrix)
	for pair, want := range keep {
		if !sameBatch(d.Channel(pair[0], pair[1]), want) {
			t.Fatalf("channel %d→%d changed across the table growth", pair[0], pair[1])
		}
	}
	for _, p := range d.LiveIDs() {
		if p != 10 && (!isZeroBatch(d.Channel(10, p)) || !isZeroBatch(d.Channel(p, 10))) {
			t.Fatalf("far node 10 serves a stale channel with %d after the table growth", p)
		}
	}
	if isZeroBatch(d.Channel(11, 5)) {
		t.Fatal("in-cluster arrival past the stride has no channel")
	}
	checkPairs(t, d)
}

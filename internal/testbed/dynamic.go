package testbed

import (
	"fmt"
	"math/rand"

	"nplus/internal/channel"
	"nplus/internal/mac"
)

// This file holds the dynamic-population mutators: a deployment built
// once can absorb arrivals, moves, and departures without re-drawing
// the channels of untouched pairs. Each mutator recomputes exactly the
// link budgets and lazily-cached channel state incident to the one
// node it names — O(n) work against the n live peers, preserving the
// sparse campus-scale memory profile (below-floor pairs still skip
// their Rayleigh taps) where a rebuild would pay the full n² draw.
//
// Determinism: every random draw comes from the rng the caller passes,
// in live-peer ascending-id order, so a given membership/mobility
// schedule replays bit-identically from an equal-seeded stream.

// peer is a node resolved for the pair loops: its spec, matrix slot,
// and position, looked up once per node rather than once per pair.
type peer struct {
	NodeSpec
	slot int
	pos  Point
}

// peerOf resolves a deployed node's slot and position.
func (d *Deployment) peerOf(n NodeSpec) peer {
	return peer{NodeSpec: n, slot: d.idx[n.ID], pos: d.Position[n.ID]}
}

// drawPair derives the a→b link budget (path loss, shadowing, extra
// link loss) from rng, records it in both matrix directions, and — if
// it clears the sparse floor — draws the pair's Rayleigh channel into
// the a→b cell. Any stale channel state for the pair must already be
// gone.
func (d *Deployment) drawPair(rng *rand.Rand, a, b peer) {
	tb := d.tb
	dist := a.pos.Distance(b.pos)
	gain := channel.PathLoss(rng, dist, tb.Cfg.PathLossExp, channel.FromDB(tb.Cfg.RefGainDB), tb.Cfg.ShadowDB)
	if d.lm.ExtraLossDB != nil {
		if loss := d.lm.ExtraLossDB(a.ID, b.ID); loss != 0 {
			gain *= channel.FromDB(-loss)
		}
	}
	gdb := clampDB(channel.DB(gain))
	d.gainDB[a.slot*d.stride+b.slot] = float32(gdb)
	d.gainDB[b.slot*d.stride+a.slot] = float32(gdb)
	if d.lm.SparseSNRDB != 0 && tb.Cfg.TxPowerDB+gdb < d.lm.SparseSNRDB {
		return // below the materialization floor: gain only
	}
	d.chans[a.slot*d.stride+b.slot] = channel.NewRayleigh(rng, b.Antennas, a.Antennas, tb.Cfg.Profile, gain)
}

// dropPairState clears both channel cells of a pair and deletes its
// cached frequency responses in both directions. Every mutator calls
// it before redrawing a pair or freeing a slot, so a recycled slot
// never serves a channel drawn for its previous occupant.
func (d *Deployment) dropPairState(a, b peer) {
	d.chans[a.slot*d.stride+b.slot] = nil
	d.chans[b.slot*d.stride+a.slot] = nil
	delete(d.freq, [2]mac.NodeID{a.ID, b.ID})
	delete(d.freq, [2]mac.NodeID{b.ID, a.ID})
}

// livePeers returns the live nodes other than id, ascending by id —
// the fixed order every mutator draws against.
func (d *Deployment) livePeers(id mac.NodeID) []peer {
	out := make([]peer, 0, len(d.idx))
	for _, other := range d.LiveIDs() {
		if other != id {
			out = append(out, d.peerOf(d.Nodes[other]))
		}
	}
	return out
}

// AddNodeAt deploys one more node at the given position, drawing its
// link budgets (and above-floor channels) against every live node in
// ascending id order. Freed matrix slots are recycled; a full matrix
// doubles its stride.
func (d *Deployment) AddNodeAt(rng *rand.Rand, spec NodeSpec, pos Point) error {
	if _, dup := d.Nodes[spec.ID]; dup {
		return fmt.Errorf("testbed: AddNodeAt: duplicate node id %d", spec.ID)
	}
	if spec.Antennas < 1 {
		return fmt.Errorf("testbed: node %d has %d antennas", spec.ID, spec.Antennas)
	}
	if spec.Antennas > d.maxAnt {
		return fmt.Errorf("testbed: node %d has %d antennas but the calibration state was drawn for at most %d; deploy with a max-antenna node present",
			spec.ID, spec.Antennas, d.maxAnt)
	}
	var s int
	if n := len(d.freeSlots); n > 0 {
		s = d.freeSlots[n-1]
		d.freeSlots = d.freeSlots[:n-1]
		d.ids[s] = spec.ID
	} else {
		s = len(d.ids)
		d.ids = append(d.ids, spec.ID)
		if len(d.ids) > d.stride {
			d.growMatrix(len(d.ids))
		}
	}
	d.idx[spec.ID] = s
	d.Nodes[spec.ID] = spec
	d.Position[spec.ID] = pos
	me := d.peerOf(spec)
	for _, b := range d.livePeers(spec.ID) {
		d.drawPair(rng, me, b)
	}
	return nil
}

// growMatrix widens the gain matrix and the channel table to at least
// want slots (doubling), recopying each row onto the new stride.
func (d *Deployment) growMatrix(want int) {
	ns := d.stride * 2
	if ns < want {
		ns = want
	}
	g := make([]float32, ns*ns)
	ch := make([]*channel.MIMO, ns*ns)
	for i := 0; i < d.stride; i++ {
		copy(g[i*ns:i*ns+d.stride], d.gainDB[i*d.stride:(i+1)*d.stride])
		copy(ch[i*ns:i*ns+d.stride], d.chans[i*d.stride:(i+1)*d.stride])
	}
	d.gainDB = g
	d.chans = ch
	d.stride = ns
}

// MoveNode relocates a node, re-deriving every link budget and
// channel that touches it (in live-peer ascending-id order) and
// invalidating only those pairs' cached responses.
func (d *Deployment) MoveNode(rng *rand.Rand, id mac.NodeID, pos Point) error {
	spec, ok := d.Nodes[id]
	if !ok {
		return fmt.Errorf("testbed: MoveNode: unknown node %d", id)
	}
	d.Position[id] = pos
	me := d.peerOf(spec)
	for _, b := range d.livePeers(id) {
		d.dropPairState(me, b)
		d.drawPair(rng, me, b)
	}
	return nil
}

// RemoveNode undeploys a node, dropping its channel state and
// recycling its matrix slot. The pair gains it leaves in the matrix
// are garbage until the slot is reused (liveness is tracked through
// idx, never through the matrix).
func (d *Deployment) RemoveNode(id mac.NodeID) error {
	s, ok := d.idx[id]
	if !ok {
		return fmt.Errorf("testbed: RemoveNode: unknown node %d", id)
	}
	me := d.peerOf(d.Nodes[id])
	for _, b := range d.livePeers(id) {
		d.dropPairState(me, b)
	}
	delete(d.idx, id)
	delete(d.Nodes, id)
	delete(d.Position, id)
	d.freeSlots = append(d.freeSlots, s)
	return nil
}

// NumLive returns the number of deployed nodes.
func (d *Deployment) NumLive() int { return len(d.idx) }

// MaxAntennas is the calibration antenna ceiling — arriving nodes must
// fit under it (the calibration state was drawn for this shape).
func (d *Deployment) MaxAntennas() int { return d.maxAnt }

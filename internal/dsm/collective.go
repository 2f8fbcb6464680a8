package dsm

import (
	"sort"

	"cni/internal/collective"
	"cni/internal/sim"
)

// This file carries the DSM barrier over the collective engine
// (Config.NICCollectives). The legacy path funnels 2(N-1) host-handled
// messages through a centralized manager at node 0; here the barrier is
// one engine episode whose opaque payload is the write-notice exchange
// itself, combined hop by hop — in board memory by the receive
// processor on the CNI — so the notices reach every node without the
// manager's host CPU ever serializing them (the NIC-combining move of
// Yu et al., PAPERS.md, applied to LRC metadata).

// barPayload is the engine payload of one barrier: the intervals this
// side knows beyond the last barrier, plus its vector clock.
type barPayload struct {
	notices []*Interval
	vc      []int32
}

// mergeBarPayloads combines two barrier payloads. Every node's bundle
// for a writer w is a contiguous run starting at lastBarVC[w]+1 —
// lastBarVC is copied from the same release vector on every node — and
// runs for the same writer are prefixes of one interval sequence, so
// the union is simply the run reaching furthest. That also makes the
// merge idempotent, which the dissemination schedule requires on
// non-power-of-two clusters (a contribution can arrive via two paths).
// The result lists writers in ascending order: the merge is
// order-insensitive, so every node ends the episode with an identical
// payload.
func mergeBarPayloads(a, b any) any {
	pa, pb := a.(*barPayload), b.(*barPayload)
	out := &barPayload{vc: make([]int32, len(pa.vc))}
	for i := range out.vc {
		out.vc[i] = pa.vc[i]
		if pb.vc[i] > out.vc[i] {
			out.vc[i] = pb.vc[i]
		}
	}
	runs := make(map[int][]*Interval)
	bucket := func(ivs []*Interval) {
		for start := 0; start < len(ivs); {
			end := start + 1
			for end < len(ivs) && ivs[end].Node == ivs[start].Node {
				end++
			}
			run := ivs[start:end]
			w := ivs[start].Node
			if cur := runs[w]; cur == nil || run[len(run)-1].Idx > cur[len(cur)-1].Idx {
				runs[w] = run
			}
			start = end
		}
	}
	bucket(pa.notices)
	bucket(pb.notices)
	writers := make([]int, 0, len(runs))
	for w := range runs {
		writers = append(writers, w)
	}
	sort.Ints(writers)
	for _, w := range writers {
		out.notices = append(out.notices, runs[w]...)
	}
	return out
}

func barPayloadBytes(p any) int {
	bp := p.(*barPayload)
	return noticeBytes(bp.notices) + 4*len(bp.vc)
}

// SetCollective attaches the runtime to its node of the collective
// engine; cluster.New calls it for every node before the run. Barriers
// ride the engine only under Config.NICCollectives and take the
// manager path otherwise.
func (r *Runtime) SetCollective(cn *collective.Node) {
	r.coll = cn
	cn.SetPayload(mergeBarPayloads, barPayloadBytes)
}

// barrierColl is Worker.Barrier on the engine. The numerical outcome is
// identical to the manager path: the merged payload holds exactly the
// cluster's intervals beyond lastBarVC, absorbing skips what this node
// already knows (so fresh matches the manager's redistribution), and
// the merged vector clock equals the manager clock the legacy release
// would have carried. Only the message pattern — and therefore the
// cycle accounting — changes.
func (w *Worker) barrierColl(id int) sim.Time {
	r := w.r
	r.Stats.BarrierOps++
	r.trace.Addf(w.proc.Local(), r.node, "barrier", "enter %d (engine)", id)
	w.release()
	bundle := r.newIntervalBundleSince(r.lastBarVC)
	pay := &barPayload{notices: bundle, vc: append([]int32(nil), r.vc...)}
	r.coll.Begin(w.proc, collective.KindBarrier, 0, 0, collective.OpSum, pay,
		func(at sim.Time, _ float64, payload any) {
			p := payload.(*barPayload)
			r.leaveBarrier(at, p.notices, p.vc)
		})
	return w.block(waitBarrier)
}

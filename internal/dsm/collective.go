package dsm

import (
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
// side knows beyond the last barrier, as a bundle, plus its vector
// clock.
type barPayload struct {
	notices [][]*Interval
	vc      []int32
}

// mergeBarPayloads combines two barrier payloads. Every node's bundle
// holds, for a writer w, one contiguous run starting at lastBarVC[w]+1
// — lastBarVC is copied from the same release vector on every node —
// and runs for the same writer are prefixes of one interval sequence,
// so the union is simply the run reaching furthest. Both bundles list
// writers in ascending order, so the merge is one linear pass over the
// two run lists. It is idempotent, which the dissemination schedule
// requires on non-power-of-two clusters (a contribution can arrive via
// two paths), and order-insensitive, so every node ends the episode
// with an identical payload. The runs are capped subslices of their
// senders' logs (newIntervalBundleSince), passed on without copying an
// interval, so a sender's log must stay append-only while a barrier is
// in flight: a log reclamation must reslice or reallocate, never
// compact in place.
func mergeBarPayloads(a, b any) any {
	pa, pb := a.(*barPayload), b.(*barPayload)
	out := &barPayload{vc: make([]int32, len(pa.vc))}
	for i := range out.vc {
		out.vc[i] = max(pa.vc[i], pb.vc[i])
	}
	ra, rb := pa.notices, pb.notices
	out.notices = make([][]*Interval, 0, len(ra)+len(rb))
	for len(ra) > 0 && len(rb) > 0 {
		x, y := ra[0], rb[0]
		switch wx, wy := x[0].Node, y[0].Node; {
		case wx < wy:
			out.notices, ra = append(out.notices, x), ra[1:]
		case wy < wx:
			out.notices, rb = append(out.notices, y), rb[1:]
		default:
			if y[len(y)-1].Idx > x[len(x)-1].Idx {
				x = y
			}
			out.notices, ra, rb = append(out.notices, x), ra[1:], rb[1:]
		}
	}
	out.notices = append(append(out.notices, ra...), rb...)
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
	ps := r.perPeer()
	bundle := r.newIntervalBundleSince(ps.lastBarVC)
	pay := &barPayload{notices: bundle, vc: append([]int32(nil), ps.vc...)}
	r.coll.Begin(w.proc, collective.KindBarrier, 0, 0, collective.OpSum, pay,
		func(at sim.Time, _ float64, payload any) {
			p := payload.(*barPayload)
			r.leaveBarrier(at, p.notices, p.vc)
		})
	return w.block(waitBarrier)
}

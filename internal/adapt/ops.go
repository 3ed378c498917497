package adapt

import (
	"math"
	"slices"
	"sync/atomic"

	"pamg2d/internal/geom"
	"pamg2d/internal/metric"
)

// opKind enumerates the cavity operators.
type opKind uint8

const (
	opSplit opKind = iota + 1
	opCollapse
	opSwap
	opSmooth
)

func (k opKind) String() string {
	switch k {
	case opSplit:
		return "split"
	case opCollapse:
		return "collapse"
	case opSwap:
		return "swap"
	case opSmooth:
		return "smooth"
	}
	return "?"
}

// qualityGain is the minimum improvement in the worst metric quality a
// swap or smooth must deliver; it keeps near-neutral operations from
// oscillating between sweeps.
const qualityGain = 1e-3

// patchRef names one neighbor-pointer word of a triangle outside the
// cavity that a commit must rewrite: tri[t].n[e]. The word index is
// recorded during evaluation (when topology is frozen and reads are
// safe) so commits write it directly without scanning — concurrent
// commits may own other words of the same triangle.
type patchRef struct {
	T int32
	E int8
}

// dyingRef describes one triangle a collapse deletes: the slot D, its
// third vertex W (besides the dying and surviving endpoints), the
// outside neighbor K across the (keep, w) edge with the index KE of K's
// pointer word back at D, and the ring neighbor R across the (w, die)
// edge. After the collapse K and R become mutual neighbors.
type dyingRef struct {
	D, K, R, W int32
	KE         int8
}

// opPlan is one evaluated cavity operation. The evaluation phase fills
// everything except newV/slots (assigned at selection for splits); seq
// is the plan's position in the merged evaluation order.
// Cav lists the triangles the commit rewrites or deletes. Selection
// claims every vertex of every cavity triangle: operations with
// disjoint cavity vertex sets read and write disjoint coordinates,
// create distinct edges, and touch distinct neighbor-pointer words, so
// their commits are independent (see engine.selectPlans).
type opPlan struct {
	Kind opKind
	seq  int32      // merge position; fills Kind's padding
	Prio float64    // selection priority, larger first
	T    int32      // anchor triangle (split/collapse/swap)
	E    int8       // anchor edge in T
	V    int32      // collapse: dying vertex; smooth: moved vertex
	Keep int32      // collapse: surviving vertex
	Pos  geom.Point // split: new point; smooth: new position
	Met  metric.M   // metric at Pos
	Bnd  bool       // split of a boundary edge
	Mid  bool       // collapse onto the edge midpoint (keep moves to Pos)
	Cav  []int32
	Pat  [2]patchRef // split/swap: outside back-pointer words
	Dy   [2]dyingRef // collapse: deleted triangles
	NDy  int8        // collapse: how many triangles die (1 or 2)

	newV  int32
	slots [2]int32
}

// clone copies a validated scratch plan to the heap with an exactly
// sized cavity; the plan lives until its pass ends.
func (p *opPlan) clone() *opPlan {
	q := *p
	q.Cav = slices.Clone(p.Cav)
	return &q
}

// edgeVerts returns the endpoints of anchor edge e of triangle t.
func (tp *topo) edgeVerts(t int32, e int) (int32, int32) {
	return tp.tri[t].v[e], tp.tri[t].v[(e+1)%3]
}

// nbrEdge returns the index of h's neighbor word referencing x, or -1.
func (tp *topo) nbrEdge(h, x int32) int8 {
	if h < 0 {
		return -1
	}
	for e := int8(0); e < 3; e++ {
		if tp.tri[h].n[e] == x {
			return e
		}
	}
	return -1
}

func (e *engine) storeVtri(v, t int32) {
	atomic.StoreInt32(&e.tp.vtri[v], t)
}

// patch writes one recorded back-pointer word.
func (e *engine) patch(p patchRef, val int32) {
	if p.T >= 0 {
		e.tp.tri[p.T].n[p.E] = val
	}
}

// --- split ---------------------------------------------------------------

// evalSplit plans the midpoint split of edge ei of triangle t when its
// metric length exceeds band. The metric at the new vertex comes from
// Options.Resample (analytic fields) or the log-Euclidean mean of the
// endpoints.
func (e *engine) evalSplit(t int32, ei int, sc *evalScratch) *opPlan {
	tp := e.tp
	a, b := tp.edgeVerts(t, ei)
	l := tp.edgeLen(a, b)
	if l <= e.opt.Band {
		return nil
	}
	mid := tp.pts[a].Mid(tp.pts[b])
	var mm metric.M
	if e.opt.Resample != nil {
		mm = e.opt.Resample(mid)
	} else {
		mm = metric.InterpLog(tp.lmet[a], tp.lmet[b], 0.5)
	}
	r := tp.tri[t]
	c := r.v[(ei+2)%3]
	n := r.n[ei]
	// The two (or four) children must be strictly CCW.
	if geom.Orient2DSign(tp.pts[a], mid, tp.pts[c]) <= 0 ||
		geom.Orient2DSign(mid, tp.pts[b], tp.pts[c]) <= 0 {
		return nil
	}
	p := sc.start(opPlan{Kind: opSplit, Prio: l, T: t, E: int8(ei), Pos: mid, Met: mm})
	p.Cav = append(p.Cav, t)
	tBC := r.n[(ei+1)%3]
	p.Pat[0] = patchRef{T: tBC, E: tp.nbrEdge(tBC, t)}
	p.Pat[1] = patchRef{T: -1}
	if n < 0 {
		p.Bnd = true
		return p.clone()
	}
	en := tp.find(n, b) // edge (b, a) in the neighbor
	if en < 0 || tp.tri[n].v[(en+1)%3] != a {
		return nil // non-manifold adjacency; leave it to the audit
	}
	d := tp.tri[n].v[(en+2)%3]
	if geom.Orient2DSign(tp.pts[b], mid, tp.pts[d]) <= 0 ||
		geom.Orient2DSign(mid, tp.pts[a], tp.pts[d]) <= 0 {
		return nil
	}
	p.Cav = append(p.Cav, n)
	nAD := tp.tri[n].n[(en+1)%3]
	p.Pat[1] = patchRef{T: nAD, E: tp.nbrEdge(nAD, n)}
	return p.clone()
}

// commitSplit replaces the one or two cavity triangles of a planned
// split with the midpoint children. Slot layout: the a-side child keeps
// slot T and the b-side child takes slots[0]; across the edge the
// b-side child keeps slot n and the a-side child takes slots[1].
func (e *engine) commitSplit(p *opPlan) {
	tp := e.tp
	t := p.T
	ei := int(p.E)
	r := tp.tri[t] // copy: the slot is overwritten below
	a, b := r.v[ei], r.v[(ei+1)%3]
	c := r.v[(ei+2)%3]
	m := p.newV
	tBC := r.n[(ei+1)%3]
	tCA := r.n[(ei+2)%3]
	s1 := p.slots[0]

	if p.Bnd {
		tp.tri[t] = triRec{v: [3]int32{a, m, c}, n: [3]int32{-1, s1, tCA}}
		tp.tri[s1] = triRec{v: [3]int32{m, b, c}, n: [3]int32{-1, tBC, t}}
		e.patch(p.Pat[0], s1) // tBC: t → s1
		e.storeVtri(a, t)
		e.storeVtri(b, s1)
		e.storeVtri(c, t)
		e.storeVtri(m, t)
		return
	}

	n := r.n[ei]
	en := tp.find(n, b)
	d := tp.tri[n].v[(en+2)%3]
	nDB := tp.tri[n].n[(en+2)%3]
	s2 := p.slots[1]

	tp.tri[t] = triRec{v: [3]int32{a, m, c}, n: [3]int32{s2, s1, tCA}}
	tp.tri[s1] = triRec{v: [3]int32{m, b, c}, n: [3]int32{n, tBC, t}}
	nAD := tp.tri[n].n[(en+1)%3]
	tp.tri[n] = triRec{v: [3]int32{b, m, d}, n: [3]int32{s1, s2, nDB}}
	tp.tri[s2] = triRec{v: [3]int32{m, a, d}, n: [3]int32{t, nAD, n}}
	e.patch(p.Pat[0], s1) // tBC: t → s1
	e.patch(p.Pat[1], s2) // nAD: n → s2
	e.storeVtri(a, t)
	e.storeVtri(b, s1)
	e.storeVtri(c, t)
	e.storeVtri(d, s2)
	e.storeVtri(m, t)
}

// --- collapse ------------------------------------------------------------

// evalCollapse plans the contraction of edge ei of triangle t when its
// metric length is below 1/band. Candidate forms are tried in order
// until one validates: contract onto either endpoint (interior endpoints
// die in preference to boundary ones), then — for fully interior edges —
// contract onto the edge midpoint, which halves the created edge lengths
// when both endpoint contractions would leave an overlong edge. A
// boundary vertex may only die into its boundary neighbor when it lies
// strictly between its two boundary neighbors on an exactly straight
// segment, so the domain shape never changes.
func (e *engine) evalCollapse(t int32, ei int, sc *evalScratch) *opPlan {
	tp := e.tp
	a, b := tp.edgeVerts(t, ei)
	l := tp.edgeLen(a, b)
	if l >= 1/e.opt.Band {
		return nil
	}
	prio := 1 / math.Max(l, 1e-300)
	type cand struct {
		die, keep int32
		mid       bool
	}
	var cands [4]cand
	nc := 0
	switch {
	case !tp.vb[a] && !tp.vb[b]:
		cands[0] = cand{a, b, false}
		cands[1] = cand{b, a, false}
		cands[2] = cand{a, b, true}
		cands[3] = cand{b, a, true}
		nc = 4
	case !tp.vb[a]:
		cands[0] = cand{a, b, false}
		nc = 1
	case !tp.vb[b]:
		cands[0] = cand{b, a, false}
		nc = 1
	case tp.tri[t].n[ei] < 0:
		// Both endpoints on the boundary and the edge itself a boundary
		// edge: either endpoint may die, but only along an exactly
		// straight boundary. (A chord between two boundary vertices can
		// never collapse.)
		for _, d := range [2][2]int32{{a, b}, {b, a}} {
			if e.collinearBoundary(d[0], d[1], sc.ring1) {
				cands[nc] = cand{d[0], d[1], false}
				nc++
			}
		}
	}
	for i := 0; i < nc; i++ {
		if p := e.tryCollapse(t, ei, prio, cands[i].die, cands[i].keep, cands[i].mid, sc); p != nil {
			return p
		}
	}
	return nil
}

// tryCollapse validates one contraction form (die onto keep, which stays
// put or — mid — moves to the edge midpoint) and builds its plan, or
// returns nil.
func (e *engine) tryCollapse(t int32, ei int, prio float64, die, keep int32, mid bool, sc *evalScratch) *opPlan {
	tp := e.tp
	ring, interior := tp.ring(die, sc.ring1)
	wantDying := 2
	if !interior {
		wantDying = 1
	}
	if len(ring) < wantDying+1 {
		return nil // nothing would survive to hold keep
	}
	p := sc.start(opPlan{Kind: opCollapse, Prio: prio, T: t, E: int8(ei), V: die, Keep: keep})
	keepPos, keepMet := tp.pts[keep], tp.met[keep]
	if mid {
		keepPos = tp.pts[die].Mid(tp.pts[keep])
		if e.opt.Resample != nil {
			keepMet = e.opt.Resample(keepPos)
		} else {
			keepMet = metric.InterpLog(tp.lmet[die], tp.lmet[keep], 0.5)
		}
		p.Mid, p.Pos, p.Met = true, keepPos, keepMet
	}
	// Gather die's neighbor vertices and the dying triangles, and check
	// every rewritten triangle stays strictly CCW.
	dieNbrs := sc.nbrs[:0] // never outgrows its capacity: 2 per ring triangle
	dying := 0
	addNbr := func(v int32) {
		if !slices.Contains(dieNbrs, v) {
			dieNbrs = append(dieNbrs, v)
		}
	}
	for _, rt := range ring {
		p.Cav = append(p.Cav, rt)
		r := tp.tri[rt]
		if tp.find(rt, keep) >= 0 {
			if dying >= wantDying {
				return nil
			}
			dr := dyingRef{D: rt, K: -1, R: -1}
			for _, v := range r.v {
				if v != die && v != keep {
					dr.W = v
					// The edge not containing die leads outside (K); the
					// edge not containing keep leads to the ring (R).
					for y := 0; y < 3; y++ {
						u, w := r.v[y], r.v[(y+1)%3]
						if u != die && w != die {
							dr.K = r.n[y]
						}
						if u != keep && w != keep {
							dr.R = r.n[y]
						}
					}
				}
				if v != die {
					addNbr(v)
				}
			}
			dr.KE = tp.nbrEdge(dr.K, rt)
			p.Dy[dying] = dr
			dying++
			continue
		}
		var q [3]geom.Point
		for i, v := range r.v {
			if v == die {
				q[i] = keepPos
			} else {
				q[i] = tp.pts[v]
				addNbr(v)
			}
		}
		if geom.Orient2DSign(q[0], q[1], q[2]) <= 0 {
			return nil
		}
	}
	if dying != wantDying {
		return nil
	}
	p.NDy = int8(wantDying)
	isW := func(v int32) bool {
		return v == p.Dy[0].W || (wantDying == 2 && v == p.Dy[1].W)
	}
	// New edges from keep must stay below the split threshold, so a
	// collapse never creates work for the next split pass. When keep
	// moves to the midpoint its surviving W edges change length too, so
	// they are re-measured rather than skipped.
	for _, v := range dieNbrs {
		if v == keep || (!mid && isW(v)) {
			continue // existing edges, unchanged by the collapse
		}
		if metric.EdgeLen(keepPos, tp.pts[v], keepMet, tp.met[v]) >= e.opt.Band {
			return nil
		}
	}
	// Link condition: a vertex adjacent to both die and keep must be a
	// dying triangle's third vertex; any other common neighbor would
	// pinch the contraction into a non-manifold bowtie. A moving keep
	// additionally requires its surviving ring triangles to stay strictly
	// CCW, its existing edges to stay short enough, and the triangles
	// join the cavity (the commit changes their shape).
	keepRing, _ := tp.ring(keep, sc.ring2)
	if len(keepRing) == 0 {
		return nil
	}
	for _, kt := range keepRing {
		r := tp.tri[kt]
		dyingTri := tp.find(kt, die) >= 0
		for _, v := range r.v {
			if v == keep || v == die || isW(v) {
				continue
			}
			if slices.Contains(dieNbrs, v) {
				return nil
			}
		}
		if !mid || dyingTri {
			continue
		}
		var q [3]geom.Point
		for i, v := range r.v {
			if v == keep {
				q[i] = keepPos
			} else {
				q[i] = tp.pts[v]
				if metric.EdgeLen(keepPos, tp.pts[v], keepMet, tp.met[v]) >= e.opt.Band {
					return nil
				}
			}
		}
		if geom.Orient2DSign(q[0], q[1], q[2]) <= 0 {
			return nil
		}
		p.Cav = append(p.Cav, kt)
	}
	return p.clone()
}

// collinearBoundary reports whether boundary vertex die lies strictly
// between its two boundary neighbors on an exactly straight segment and
// keep is one of those neighbors.
func (e *engine) collinearBoundary(die, keep int32, scratch []int32) bool {
	tp := e.tp
	ring, interior := tp.ring(die, scratch)
	if interior || len(ring) == 0 {
		return false
	}
	// In an open CCW fan the boundary neighbors are the first triangle's
	// CCW-next vertex and the last triangle's CCW-prev vertex.
	first, last := ring[0], ring[len(ring)-1]
	i0 := tp.find(first, die)
	i1 := tp.find(last, die)
	if i0 < 0 || i1 < 0 {
		return false
	}
	n0 := tp.tri[first].v[(i0+1)%3] // along the boundary, CW side
	n1 := tp.tri[last].v[(i1+2)%3]  // along the boundary, CCW side
	if n0 != keep && n1 != keep {
		return false
	}
	z := n0
	if z == keep {
		z = n1
	}
	if geom.Orient2DSign(tp.pts[z], tp.pts[die], tp.pts[keep]) != 0 {
		return false
	}
	// Strictly between: the segments z→die and die→keep point the same
	// way.
	return tp.pts[die].Sub(tp.pts[z]).Dot(tp.pts[keep].Sub(tp.pts[die])) > 0
}

// commitCollapse contracts die onto keep: ring triangles containing
// keep die, the rest are rewritten in place with die replaced by keep,
// and adjacency across each dying triangle is stitched between its two
// surviving neighbors. The dying slots are recycled by the sequential
// post-commit phase.
func (e *engine) commitCollapse(p *opPlan) {
	tp := e.tp
	die, keep := p.V, p.Keep
	if p.Mid {
		tp.pts[keep] = p.Pos
		tp.setMetric(keep, p.Met)
	}
	dying := func(rt int32) bool {
		for i := 0; i < int(p.NDy); i++ {
			if p.Dy[i].D == rt {
				return true
			}
		}
		return false
	}
	var survivor int32 = -1
	for _, rt := range p.Cav {
		if dying(rt) {
			continue
		}
		r := &tp.tri[rt]
		for i := range r.v {
			if r.v[i] == die {
				r.v[i] = keep
			}
		}
		if survivor < 0 {
			survivor = rt
		}
	}
	for i := 0; i < int(p.NDy); i++ {
		dr := p.Dy[i]
		if dr.R >= 0 {
			// R is ours (cavity): scanning its words is single-writer.
			tp.setNeighbor(dr.R, dr.D, dr.K)
		}
		if dr.K >= 0 {
			tp.tri[dr.K].n[dr.KE] = dr.R
		}
		if atomic.LoadInt32(&tp.vtri[dr.W]) == dr.D {
			tgt := dr.R
			if tgt < 0 {
				tgt = dr.K
			}
			e.storeVtri(dr.W, tgt)
		}
	}
	e.storeVtri(keep, survivor)
	atomic.StoreInt32(&tp.vtri[die], -1)
}

// --- swap ----------------------------------------------------------------

// evalSwap plans the diagonal flip of interior edge ei of triangle t
// when the flip strictly improves the worse metric quality of the pair.
func (e *engine) evalSwap(t int32, ei int) *opPlan {
	tp := e.tp
	r := tp.tri[t]
	n := r.n[ei]
	if n < 0 {
		return nil
	}
	a, b := r.v[ei], r.v[(ei+1)%3]
	c := r.v[(ei+2)%3]
	en := tp.find(n, b)
	if en < 0 || tp.tri[n].v[(en+1)%3] != a {
		return nil
	}
	d := tp.tri[n].v[(en+2)%3]
	pa, pb, pc, pd := tp.pts[a], tp.pts[b], tp.pts[c], tp.pts[d]
	// The flipped pair must be strictly CCW (quad convexity).
	if geom.Orient2DSign(pa, pd, pc) <= 0 || geom.Orient2DSign(pd, pb, pc) <= 0 {
		return nil
	}
	// Each new triangle is rejected against the bar as soon as it is
	// computed: min(q1, q2) <= bar exactly when one of them is. That
	// matches testing the minimum only because TriQuality is never NaN
	// on SPD tensors (TestTriQualityFiniteSPD); math.Min would propagate
	// a NaN that the comparison then lets through.
	qOld := math.Min(tp.quality(a, b, c), tp.quality(b, a, d))
	bar := qOld + qualityGain
	q1 := tp.quality(a, d, c)
	if q1 <= bar {
		return nil
	}
	q2 := tp.quality(d, b, c)
	if q2 <= bar {
		return nil
	}
	qNew := math.Min(q1, q2)
	p := &opPlan{Kind: opSwap, Prio: qNew - qOld, T: t, E: int8(ei)}
	p.Cav = append(p.Cav, t, n)
	nAD := tp.tri[n].n[(en+1)%3]
	tBC := r.n[(ei+1)%3]
	p.Pat[0] = patchRef{T: nAD, E: tp.nbrEdge(nAD, n)}
	p.Pat[1] = patchRef{T: tBC, E: tp.nbrEdge(tBC, t)}
	return p
}

// commitSwap flips the diagonal: t = (a,b,c) and n = (b,a,d) become
// (a,d,c) in slot t and (d,b,c) in slot n.
func (e *engine) commitSwap(p *opPlan) {
	tp := e.tp
	t := p.T
	ei := int(p.E)
	r := tp.tri[t]
	a, b := r.v[ei], r.v[(ei+1)%3]
	c := r.v[(ei+2)%3]
	n := r.n[ei]
	en := tp.find(n, b)
	d := tp.tri[n].v[(en+2)%3]
	tBC := r.n[(ei+1)%3]
	tCA := r.n[(ei+2)%3]
	nAD := tp.tri[n].n[(en+1)%3]
	nDB := tp.tri[n].n[(en+2)%3]

	tp.tri[t] = triRec{v: [3]int32{a, d, c}, n: [3]int32{nAD, n, tCA}}
	tp.tri[n] = triRec{v: [3]int32{d, b, c}, n: [3]int32{nDB, tBC, t}}
	e.patch(p.Pat[0], t) // nAD: n → t
	e.patch(p.Pat[1], n) // tBC: t → n
	e.storeVtri(a, t)
	e.storeVtri(b, n)
	e.storeVtri(c, t)
	e.storeVtri(d, t)
}

// --- smooth --------------------------------------------------------------

// evalSmooth plans a metric-weighted Laplacian move of interior vertex
// v: the target is the neighbor average weighted by metric edge length
// (overlong directions pull harder), damped halfway, accepted only when
// every ring triangle stays strictly CCW and the worst ring quality
// strictly improves. The old ring qualities come from the pass's
// fillQuality cache.
func (e *engine) evalSmooth(v int32, scratch []int32) *opPlan {
	tp := e.tp
	if tp.vb[v] || tp.vtri[v] < 0 {
		return nil
	}
	ring, interior := tp.ring(v, scratch)
	if !interior || len(ring) < 3 {
		return nil
	}
	var sx, sy, wsum float64
	qOld := math.Inf(1)
	for _, rt := range ring {
		i := tp.find(rt, v)
		nb := tp.tri[rt].v[(i+1)%3]
		w := tp.edgeLen(v, nb)
		sx += w * tp.pts[nb].X
		sy += w * tp.pts[nb].Y
		wsum += w
		qOld = math.Min(qOld, e.qual[rt])
	}
	if wsum <= 0 {
		return nil
	}
	target := geom.Pt(sx/wsum, sy/wsum)
	pos := tp.pts[v].Lerp(target, 0.5)
	if pos == tp.pts[v] {
		return nil
	}
	mm, lmm := tp.met[v], tp.lmet[v]
	if e.opt.Resample != nil {
		mm = e.opt.Resample(pos)
		lmm = mm.Log()
	}
	// Reject as soon as one ring triangle is at or below the bar; as in
	// evalSwap this equals testing the ring minimum because TriQuality
	// is never NaN on SPD tensors.
	bar := qOld + qualityGain
	qNew := math.Inf(1)
	for _, rt := range ring {
		r := tp.tri[rt]
		var q [3]geom.Point
		var ms, ls [3]metric.M
		for i, vv := range r.v {
			if vv == v {
				q[i], ms[i], ls[i] = pos, mm, lmm
			} else {
				q[i], ms[i], ls[i] = tp.pts[vv], tp.met[vv], tp.lmet[vv]
			}
		}
		if geom.Orient2DSign(q[0], q[1], q[2]) <= 0 {
			return nil
		}
		qt := metric.TriQualityLog(q[0], q[1], q[2], ms[0], ms[1], ms[2], ls[0], ls[1], ls[2])
		if qt <= bar {
			return nil
		}
		qNew = math.Min(qNew, qt)
	}
	p := &opPlan{Kind: opSmooth, Prio: qNew - qOld, T: -1, V: v, Pos: pos, Met: mm}
	p.Cav = append([]int32(nil), ring...)
	return p
}

// commitSmooth moves the vertex. The vertex claim over its full ring
// guarantees nobody concurrently reads the old coordinates.
func (e *engine) commitSmooth(p *opPlan) {
	e.tp.pts[p.V] = p.Pos
	e.tp.setMetric(p.V, p.Met)
}

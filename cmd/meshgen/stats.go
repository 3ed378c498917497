package main

// Per-process run-summary aggregation for multi-process runs. Each worker
// ships a compact numeric summary of its own Stats to the launcher over
// the telemetry channel (a []float64 payload, wire codec CodecFloats)
// just before the finalize barrier; FIFO frame delivery guarantees the
// launcher holds every survivor's summary once the barrier releases. The
// launcher merges them with its own rank-0 summary into the final report,
// so the per-rank tasks/wire/steal numbers cover the whole process
// tree instead of just rank 0.

import (
	"fmt"
	"io"
	"sort"
	"time"

	"pamg2d/internal/core"
)

// statsWireVersion stamps the summary vector so a launcher never
// misparses a foreign []float64 telemetry payload (or a future layout).
const statsWireVersion = 2

// rankSummary is one process's run summary, as shipped on the wire.
type rankSummary struct {
	rank         int
	tasks        int
	busySeconds  float64
	msgs         int64
	bytes        int64
	stealReq     int
	stealGranted int
	stealGotten  int
	idleSeconds  float64
}

// summarizeRankStats reduces one process's Stats to its local summary.
// Task measures are recorded only on the executing process, so counting
// the non-zero entries yields the tasks this rank ran.
func summarizeRankStats(rank int, st *core.Stats) rankSummary {
	rs := rankSummary{
		rank:         rank,
		msgs:         st.Messages,
		bytes:        st.BytesOnWire,
		stealReq:     st.Steals.Requests,
		stealGranted: st.Steals.Granted,
		stealGotten:  st.Steals.Gotten,
		idleSeconds:  st.Steals.Idle.Seconds(),
	}
	for _, m := range st.Tasks {
		if m.Seconds > 0 || m.Triangles > 0 {
			rs.tasks++
			rs.busySeconds += m.Seconds
		}
	}
	return rs
}

// encodeRankStats lays the summary out as the telemetry payload vector.
func encodeRankStats(rank int, st *core.Stats) []float64 {
	rs := summarizeRankStats(rank, st)
	return []float64{
		statsWireVersion,
		float64(rs.rank),
		float64(rs.tasks),
		rs.busySeconds,
		float64(rs.msgs),
		float64(rs.bytes),
		float64(rs.stealReq),
		float64(rs.stealGranted),
		float64(rs.stealGotten),
		rs.idleSeconds,
	}
}

// decodeRankStats parses a telemetry vector back into a summary; ok is
// false for payloads that are not a current-version summary.
func decodeRankStats(v []float64) (rankSummary, bool) {
	if len(v) != 10 || v[0] != statsWireVersion {
		return rankSummary{}, false
	}
	return rankSummary{
		rank:         int(v[1]),
		tasks:        int(v[2]),
		busySeconds:  v[3],
		msgs:         int64(v[4]),
		bytes:        int64(v[5]),
		stealReq:     int(v[6]),
		stealGranted: int(v[7]),
		stealGotten:  int(v[8]),
		idleSeconds:  v[9],
	}, true
}

// printRankStats writes the per-rank section of the final report: the
// launcher's own summary merged with every worker summary that arrived,
// in rank order. Ranks that died mid-run simply have no line — their
// summary never shipped.
func printRankStats(w io.Writer, own rankSummary, workers []rankSummary) {
	all := append([]rankSummary{own}, workers...)
	sort.Slice(all, func(i, j int) bool { return all[i].rank < all[j].rank })
	for _, rs := range all {
		fmt.Fprintf(w, "rank %-2d              %d tasks, %.2fs busy, %d msgs, %d B wire, steals %d got / %d granted\n",
			rs.rank, rs.tasks, rs.busySeconds, rs.msgs, rs.bytes, rs.stealGotten, rs.stealGranted)
	}
}

// printResilience writes the degradation section: which ranks died, when
// and why, and what the recovery cost.
func printResilience(w io.Writer, st *core.Stats) {
	r := st.Resilience
	fmt.Fprintf(w, "resilience           %d rank(s) lost, %d task(s) re-queued, recovery %v\n",
		r.RanksLost, r.TasksRequeued, r.RecoveryWall.Round(time.Millisecond))
	for _, d := range r.Deaths {
		fmt.Fprintf(w, "  rank %-2d died       %s: %s\n",
			d.Rank, d.At.Format("15:04:05.000"), d.Cause)
	}
}

// reportDeaths prints the operational warning for a degraded run; it goes
// to stderr even in quiet mode — a silently shrunken fabric is the one
// thing an operator always wants to know about. It reads the deaths the
// run itself recorded, not the fabric's current view: after the finalize
// barrier the surviving workers exit and their link EOFs are declared as
// deaths too, which would misreport a clean shutdown.
func reportDeaths(w io.Writer, st *core.Stats) {
	for _, d := range st.Resilience.Deaths {
		fmt.Fprintf(w, "meshgen: rank %d died at %s (%s); completed on the survivors (%d task(s) re-queued)\n",
			d.Rank, d.At.Format("15:04:05.000"), d.Cause, st.Resilience.TasksRequeued)
	}
}

package experiments

import (
	"fmt"
	"sort"
	"strings"

	"p2pbound/internal/analyzer"
	"p2pbound/internal/l7"
	"p2pbound/internal/packet"
	"p2pbound/internal/stats"
	"p2pbound/internal/trace"
)

// T1Row is one application's identification accuracy.
type T1Row struct {
	App       l7.App
	Truth     int // ground-truth connections of this application
	Predicted int // connections the analyzer labelled with it
	Correct   int // intersection
}

// Precision is the fraction of predictions that were right.
func (r T1Row) Precision() float64 {
	if r.Predicted == 0 {
		return 0
	}
	return float64(r.Correct) / float64(r.Predicted)
}

// Recall is the fraction of true connections that were found.
func (r T1Row) Recall() float64 {
	if r.Truth == 0 {
		return 0
	}
	return float64(r.Correct) / float64(r.Truth)
}

// T1Result evaluates the Table 1 identification pipeline against the
// generator's ground truth: for every connection both the analyzer and
// the generator know about, does the assigned application match? The
// paper could not do this (no ground truth on a live campus link); the
// synthetic substitution makes the classifier testable.
type T1Result struct {
	Rows []T1Row
	// Matched is the number of connections present in both views.
	Matched int
	// MethodCounts tallies how connections were identified.
	MethodCounts map[string]int
}

// RunT1Accuracy matches analyzer connections against ground-truth flows
// by five tuple. Flows whose packets were entirely clipped by the capture
// window are skipped.
func (s *Suite) RunT1Accuracy() *T1Result {
	if s.Trace == nil {
		return &T1Result{MethodCounts: map[string]int{}}
	}
	a, err := analyzer.New(analyzer.DefaultConfig(s.Trace.Config.ClientNet))
	if err != nil {
		return &T1Result{MethodCounts: map[string]int{}}
	}
	for i := range s.Trace.Packets {
		a.Feed(&s.Trace.Packets[i])
	}
	a.FinalizePortIdent()

	byKey := make(map[[packet.KeySize]byte]*analyzer.Connection)
	for _, c := range a.Connections() {
		byKey[c.Pair.Key()] = c
	}

	res := &T1Result{MethodCounts: make(map[string]int)}
	rows := make(map[l7.App]*T1Row)
	row := func(app l7.App) *T1Row {
		r, ok := rows[app]
		if !ok {
			r = &T1Row{App: app}
			rows[app] = r
		}
		return r
	}
	for i := range s.Trace.Flows {
		f := &s.Trace.Flows[i]
		conn := lookupFlow(byKey, f)
		if conn == nil {
			continue // clipped by the capture window
		}
		res.Matched++
		row(f.App).Truth++
		row(conn.App).Predicted++
		if conn.App == f.App {
			row(f.App).Correct++
		}
		res.MethodCounts[conn.Method.String()]++
	}
	for _, r := range rows {
		res.Rows = append(res.Rows, *r)
	}
	// Rows come from a map, so ties on Truth are broken by name: the
	// table must print the same bytes on every run.
	sort.Slice(res.Rows, func(i, j int) bool {
		a, b := &res.Rows[i], &res.Rows[j]
		if a.Truth != b.Truth {
			return a.Truth > b.Truth
		}
		return a.App.String() < b.App.String()
	})
	return res
}

// lookupFlow finds the analyzer connection matching a ground-truth flow
// in either orientation.
func lookupFlow(byKey map[[packet.KeySize]byte]*analyzer.Connection, f *trace.Flow) *analyzer.Connection {
	pair := f.Pair()
	if c, ok := byKey[pair.Key()]; ok {
		return c
	}
	if c, ok := byKey[pair.Inverse().Key()]; ok {
		return c
	}
	return nil
}

// Render prints the per-application precision/recall table.
func (r *T1Result) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.App.String(),
			fmt.Sprintf("%d", row.Truth),
			fmt.Sprintf("%d", row.Predicted),
			stats.Pct(row.Precision()),
			stats.Pct(row.Recall()),
		})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "T1: identification accuracy vs ground truth (%d matched connections)\n", r.Matched)
	b.WriteString(stats.Table([]string{"application", "truth", "predicted", "precision", "recall"}, rows))
	if len(r.MethodCounts) > 0 {
		methods := make([]string, 0, len(r.MethodCounts))
		for m := range r.MethodCounts {
			methods = append(methods, m)
		}
		sort.Strings(methods)
		b.WriteString("  identification methods: ")
		for i, m := range methods {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s %d", m, r.MethodCounts[m])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

package scenarios

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"repro/internal/monitor"
)

// tableRule is the violation table's rule line.
var tableRule = strings.Repeat("-", 110) + "\n"

// RenderViolationTable renders the Appendix D violation table for one
// scenario: every goal and subgoal that was violated, where it was
// monitored, and the start time and duration of each violation.  It appends
// into one builder (no fmt), since a KeepTrace sweep renders one table per
// variant.
func RenderViolationTable(r Result) string {
	report := r.Suite.Report()
	var b strings.Builder
	b.Grow(400 + 160*len(report))
	var num [32]byte
	b.WriteString("Scenario ")
	b.Write(strconv.AppendInt(num[:0], int64(r.Scenario.Number), 10))
	b.WriteString(": ")
	b.WriteString(r.Scenario.Description)
	b.WriteString("\nSimulated ")
	b.Write(strconv.AppendFloat(num[:0], float64(r.Trace.Len())*Period.Seconds(), 'f', 3, 64))
	b.WriteString(" s of ")
	b.Write(strconv.AppendFloat(num[:0], r.Scenario.Duration.Seconds(), 'f', 0, 64))
	b.WriteString(" s")
	if r.Collision {
		b.WriteString(" (terminated early: collision)")
	}
	b.WriteByte('\n')
	b.WriteString(tableRule)
	if len(report) == 0 {
		b.WriteString("(no goal or subgoal violations)\n")
		return b.String()
	}
	writePadded(&b, "Goal/Subgoal", 58)
	writePadded(&b, "Location", 10)
	writePadded(&b, "Count", 10)
	b.WriteString("Violations (start, duration)\n")
	for _, row := range report {
		writePadded(&b, row.GoalName, 58)
		writePadded(&b, row.Location, 10)
		count := strconv.AppendInt(num[:0], int64(len(row.Violations)), 10)
		b.Write(count)
		pad(&b, len(count), 10)
		for i, iv := range row.Violations {
			if i > 0 {
				b.WriteString("  ")
			}
			if i >= 4 {
				b.WriteString("(+")
				b.Write(strconv.AppendInt(num[:0], int64(len(row.Violations)-i), 10))
				b.WriteString(" more)")
				break
			}
			b.Write(strconv.AppendFloat(num[:0], iv.StartTime(row.Period).Seconds(), 'f', 3, 64))
			b.WriteString("s/")
			b.Write(appendDuration(num[:0], iv.Duration(row.Period)))
		}
		b.WriteByte('\n')
	}
	b.WriteString("\nClassification: ")
	b.WriteString(r.Summary.String())
	b.WriteByte('\n')
	return b.String()
}

// writePadded writes s left-aligned in a field of width runes and one
// separating space, as fmt's %-*s followed by a space.
func writePadded(b *strings.Builder, s string, width int) {
	b.WriteString(s)
	pad(b, utf8.RuneCountInString(s), width)
}

// pad fills a field of width runes holding n of them, then writes the
// separating space.
func pad(b *strings.Builder, n, width int) {
	for ; n < width; n++ {
		b.WriteByte(' ')
	}
	b.WriteByte(' ')
}

// appendDuration appends d formatted exactly as time.Duration.String formats
// it ("1ms", "391ms", "1.5s", "2m0.25s"), without building the string.
func appendDuration(b []byte, d time.Duration) []byte {
	if d < 0 {
		return append(b, d.String()...)
	}
	u := uint64(d)
	switch {
	case u == 0:
		return append(b, "0s"...)
	case u < uint64(time.Microsecond):
		return append(strconv.AppendUint(b, u, 10), "ns"...)
	case u < uint64(time.Millisecond):
		return append(appendDecimal(b, u, 3), "µs"...)
	case u < uint64(time.Second):
		return append(appendDecimal(b, u, 6), "ms"...)
	}
	secs := u / uint64(time.Second)
	if secs >= 3600 {
		b = append(strconv.AppendUint(b, secs/3600, 10), 'h')
	}
	if secs >= 60 {
		b = append(strconv.AppendUint(b, secs/60%60, 10), 'm')
	}
	b = appendDecimal(b, secs%60*uint64(time.Second)+u%uint64(time.Second), 9)
	return append(b, 's')
}

// appendDecimal appends v scaled down by 10^prec: the integer part, then a
// point and the fraction without trailing zeros when it is not zero.
func appendDecimal(b []byte, v uint64, prec int) []byte {
	scale := uint64(1)
	for i := 0; i < prec; i++ {
		scale *= 10
	}
	b = strconv.AppendUint(b, v/scale, 10)
	frac := v % scale
	if frac == 0 {
		return b
	}
	for frac%10 == 0 {
		frac /= 10
		prec--
	}
	var digits [9]byte
	for i := prec - 1; i >= 0; i-- {
		digits[i] = byte('0' + frac%10)
		frac /= 10
	}
	b = append(b, '.')
	return append(b, digits[:prec]...)
}

// RenderClassificationDetail lists every hit, false negative and false
// positive of a scenario, grouped by system goal.
func RenderClassificationDetail(r Result) string {
	var b strings.Builder
	names := make([]string, 0, len(r.Detections))
	for name := range r.Detections {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ds := r.Detections[name]
		if len(ds) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s\n", name)
		for _, d := range ds {
			switch d.Kind {
			case monitor.Hit:
				fmt.Fprintf(&b, "  hit: goal violation at %s matched by %s\n",
					d.Interval, strings.Join(d.MatchedSubgoals, ", "))
			case monitor.FalseNegative:
				fmt.Fprintf(&b, "  false negative: goal violation at %s with no corresponding subgoal violation\n", d.Interval)
			case monitor.FalsePositive:
				fmt.Fprintf(&b, "  false positive: subgoal %s violated at %s (%s) with no goal violation\n",
					d.GoalName, d.Interval, d.Location)
			}
		}
	}
	if b.Len() == 0 {
		return "(no detections)\n"
	}
	return b.String()
}

// SummaryRow is one row of the cross-scenario summary table.
type SummaryRow struct {
	// Scenario is the thesis scenario number.
	Scenario int
	// GoalViolations counts distinct system-goal violation intervals.
	GoalViolations int
	// SubgoalViolations counts distinct subgoal violation intervals.
	SubgoalViolations int
	// Summary is the hit / false-negative / false-positive classification.
	Summary monitor.Summary
	// Collision reports early termination on collision.
	Collision bool
}

// Summarize builds the cross-scenario summary from a set of results.
func Summarize(results []Result) []SummaryRow {
	rows := make([]SummaryRow, 0, len(results))
	for _, r := range results {
		row := SummaryRow{Scenario: r.Scenario.Number, Summary: r.Summary, Collision: r.Collision}
		for _, h := range r.Suite.Hierarchies() {
			row.GoalViolations += h.Parent.ViolationCount()
			for _, c := range h.Children {
				row.SubgoalViolations += c.ViolationCount()
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderSummary renders the cross-scenario summary table.
func RenderSummary(results []Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s %-6s %-10s %-13s %-6s %-8s %-8s\n",
		"Scenario", "Goal", "Subgoal", "Collision", "Hits", "FalseNeg", "FalsePos")
	fmt.Fprintf(&b, "%-9s %-6s %-10s\n", "", "viol.", "violations")
	fmt.Fprintln(&b, strings.Repeat("-", 70))
	for _, row := range Summarize(results) {
		collision := ""
		if row.Collision {
			collision = "yes"
		}
		fmt.Fprintf(&b, "%-9d %-6d %-10d %-13s %-6d %-8d %-8d\n",
			row.Scenario, row.GoalViolations, row.SubgoalViolations, collision,
			row.Summary.Hits, row.Summary.FalseNegatives, row.Summary.FalsePositives)
	}
	var total monitor.Summary
	for _, r := range results {
		total = total.Add(r.Summary)
	}
	fmt.Fprintln(&b, strings.Repeat("-", 70))
	fmt.Fprintf(&b, "Overall: %s\n", total)
	fmt.Fprintf(&b, "Interpretation: %s\n", total.CompositionEvidence())
	return b.String()
}

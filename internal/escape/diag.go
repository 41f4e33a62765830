// Package escape turns the Go compiler's escape-analysis and inlining
// diagnostics (go build -gcflags='-m=2') into structured facts and gates
// them against a committed budget. It is the compile-time half of the
// hot-path performance contract: cmd/benchgate catches a regression
// after the benchmark has already paid for it, while cmd/escapegate —
// built on this package — catches the *cause* (a value boxed to the
// heap, a kernel function pushed past the inlining budget) at build
// time, before a single benchmark runs.
//
// The flow is: Collect compiles the hot-path packages with -m=2,
// Parse structures the diagnostic stream, the parsed sites are
// attributed to their enclosing declared functions, and Diff compares
// the resulting per-function facts against the committed
// ESCAPE_baseline.json.
package escape

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// Kind classifies one compiler diagnostic line.
type Kind int

const (
	// KindOther is an unclassified diagnostic (capturing-by-value notes,
	// leak details, and whatever future compilers add). Parse keeps the
	// raw text so nothing is silently dropped.
	KindOther Kind = iota
	// KindCanInline is "can inline F with cost N as: ...".
	KindCanInline
	// KindCannotInline is "cannot inline F: reason".
	KindCannotInline
	// KindInliningCall is "inlining call to F".
	KindInliningCall
	// KindEscape is "EXPR escapes to heap" (the -m=2 stream emits each
	// site twice, once with a trailing colon introducing the flow trace
	// and once bare; Parse folds the pair into one Diag carrying the
	// trace).
	KindEscape
	// KindMovedToHeap is "moved to heap: NAME" — a local variable whose
	// storage was forced off the stack.
	KindMovedToHeap
	// KindNoEscape is "EXPR does not escape".
	KindNoEscape
	// KindLeakingParam is the "leaking param: NAME" family. Leaks are
	// informational (a leaking parameter is not itself an allocation)
	// and are not gated, but the parser understands them so traces stay
	// attached to the right site.
	KindLeakingParam
	// KindTrace is an indented flow line belonging to the preceding
	// escape diagnostic ("flow: {heap} = ..." / "from ... at ...").
	KindTrace
)

// Diag is one structured compiler diagnostic.
type Diag struct {
	File string
	Line int
	Col  int // 0 when the compiler omitted the column
	Kind Kind
	// Func is the function named by inline diagnostics
	// (e.g. "(*Weights).Margin", "Sparse.Dot", "NewSparse").
	Func string
	// Expr is the escaping expression or variable name for
	// KindEscape/KindMovedToHeap/KindNoEscape/KindLeakingParam.
	Expr string
	// Reason is the compiler's explanation for KindCannotInline
	// ("function too complex: cost 112 exceeds budget 80").
	Reason string
	// Flow holds the nested -m=2 escape trace lines, outermost first.
	Flow []string
	// Text is the raw message after the position prefix.
	Text string
}

// ParseLine classifies a single diagnostic line. It reports false for
// lines that carry no position ("# package" headers, blank lines) or
// that do not look like compiler output at all. Indented trace lines
// parse as KindTrace; Parse attaches them to the previous site.
func ParseLine(line string) (Diag, bool) {
	line = strings.TrimRight(line, "\r\n")
	if line == "" || strings.HasPrefix(line, "#") {
		return Diag{}, false
	}
	file, lineNo, col, msg, ok := splitPos(line)
	if !ok {
		return Diag{}, false
	}
	d := Diag{File: file, Line: lineNo, Col: col, Text: msg}
	// Trace lines keep their leading indentation after the position
	// prefix: "  flow: ..." / "    from ... at ...".
	if strings.HasPrefix(msg, " ") {
		d.Kind = KindTrace
		d.Text = strings.TrimSpace(msg)
		return d, true
	}
	switch {
	case strings.HasPrefix(msg, "can inline "):
		d.Kind = KindCanInline
		rest := strings.TrimPrefix(msg, "can inline ")
		if i := strings.Index(rest, " with cost "); i >= 0 {
			d.Func = rest[:i]
		} else {
			d.Func = strings.TrimSuffix(rest, ":")
		}
	case strings.HasPrefix(msg, "cannot inline "):
		d.Kind = KindCannotInline
		rest := strings.TrimPrefix(msg, "cannot inline ")
		if name, reason, found := strings.Cut(rest, ": "); found {
			d.Func, d.Reason = name, reason
		} else {
			d.Func = rest
		}
	case strings.HasPrefix(msg, "inlining call to "):
		d.Kind = KindInliningCall
		d.Func = strings.TrimPrefix(msg, "inlining call to ")
	case strings.HasPrefix(msg, "moved to heap: "):
		d.Kind = KindMovedToHeap
		d.Expr = strings.TrimPrefix(msg, "moved to heap: ")
	case strings.HasSuffix(msg, " escapes to heap:"):
		d.Kind = KindEscape
		d.Expr = strings.TrimSuffix(msg, " escapes to heap:")
	case strings.HasSuffix(msg, " escapes to heap"):
		d.Kind = KindEscape
		d.Expr = strings.TrimSuffix(msg, " escapes to heap")
	case strings.HasSuffix(msg, " does not escape"):
		d.Kind = KindNoEscape
		d.Expr = strings.TrimSuffix(msg, " does not escape")
	case strings.HasPrefix(msg, "leaking param"):
		d.Kind = KindLeakingParam
		if _, name, found := strings.Cut(msg, ": "); found {
			d.Expr = name
		}
	case strings.HasPrefix(msg, "parameter ") && strings.Contains(msg, " leaks to "):
		// "-m=2" detail form of a leak; treat as the leak family so the
		// aggregator dedupes it against the bare "leaking param" line.
		d.Kind = KindLeakingParam
		rest := strings.TrimPrefix(msg, "parameter ")
		if i := strings.Index(rest, " leaks to "); i >= 0 {
			d.Expr = rest[:i]
		}
	default:
		d.Kind = KindOther
	}
	// An inline diagnostic that names no function is not one the
	// compiler emits; degrade to KindOther rather than inventing an
	// anonymous inline fact.
	switch d.Kind {
	case KindCanInline, KindCannotInline, KindInliningCall:
		if d.Func == "" {
			d.Kind, d.Reason = KindOther, ""
		}
	}
	return d, true
}

// splitPos splits "file:line[:col]: message". The column is optional
// because synthetic positions ("<autogenerated>:1: ...") omit it. File
// names containing colons are not produced by the gc toolchain on the
// platforms this project targets, so the first colon ends the file part.
func splitPos(line string) (file string, lineNo, col int, msg string, ok bool) {
	i := strings.Index(line, ":")
	if i <= 0 {
		return "", 0, 0, "", false
	}
	file = line[:i]
	tail := line[i+1:]
	j := strings.Index(tail, ":")
	if j < 0 {
		return "", 0, 0, "", false
	}
	n, err := strconv.Atoi(tail[:j])
	if err != nil || n < 0 {
		return "", 0, 0, "", false
	}
	lineNo = n
	after := tail[j+1:]
	// Optional column: "col: msg" vs " msg".
	if k := strings.Index(after, ":"); k > 0 {
		if c, err := strconv.Atoi(after[:k]); err == nil && c >= 0 {
			col = c
			msg = strings.TrimPrefix(after[k+1:], " ")
			return file, lineNo, col, msg, true
		}
	}
	msg = strings.TrimPrefix(after, " ")
	return file, lineNo, 0, msg, true
}

// Parse structures a whole -m=2 diagnostic stream: trace lines attach to
// the escape/leak diagnostic they follow, and the duplicated
// traced+bare forms of one site fold into a single Diag. The relative
// order of distinct diagnostics is preserved.
func Parse(r io.Reader) ([]Diag, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var out []Diag
	// seen maps a site key to its index in out so the bare duplicate of
	// a traced escape site merges instead of double-counting.
	seen := make(map[string]int)
	last := -1 // index of the diagnostic open for trace attachment
	for sc.Scan() {
		d, ok := ParseLine(sc.Text())
		if !ok {
			continue
		}
		if d.Kind == KindTrace {
			if last >= 0 {
				out[last].Flow = append(out[last].Flow, d.Text)
			}
			continue
		}
		switch d.Kind {
		case KindEscape, KindMovedToHeap, KindLeakingParam:
			key := siteKey(d)
			if i, dup := seen[key]; dup {
				last = i
				continue
			}
			seen[key] = len(out)
		}
		last = len(out)
		out = append(out, d)
	}
	return out, sc.Err()
}

func siteKey(d Diag) string {
	return d.File + ":" + strconv.Itoa(d.Line) + ":" + strconv.Itoa(d.Col) +
		"|" + strconv.Itoa(int(d.Kind)) + "|" + d.Expr
}

package graph

import (
	"bufio"
	"fmt"
	"strings"
	"testing"

	"faultcast/internal/rng"
)

func TestEdgeListRoundTrip(t *testing.T) {
	r := rng.New(17)
	for _, g := range []*Graph{Line(7), Star(5), Grid(3, 3), GNP(20, 0.15, r), Layered(3)} {
		var sb strings.Builder
		if err := g.WriteEdgeList(&sb); err != nil {
			t.Fatal(err)
		}
		back, err := ReadEdgeList(strings.NewReader(sb.String()), "roundtrip")
		if err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		if back.N() != g.N() || back.M() != g.M() {
			t.Fatalf("%v: round-trip n=%d m=%d", g, back.N(), back.M())
		}
		for v := 0; v < g.N(); v++ {
			g.ForNeighbors(v, func(w int) {
				if !back.HasEdge(v, w) {
					t.Fatalf("%v: lost edge (%d,%d)", g, v, w)
				}
			})
		}
		if err := back.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"no header", "0 1\n"},
		{"bad header", "n x\n"},
		{"duplicate header", "n 3\nn 3\n"},
		{"bad edge line", "n 3\n0 1 2\n"},
		{"out of range", "n 3\n0 5\n"},
		{"self loop", "n 3\n1 1\n"},
		{"empty", ""},
		{"garbage edge", "n 3\na b\n"},
		{"bytes after the count", "n 12abc\n"},
		{"hex count", "n 0x10\n"},
		{"bytes after an edge", "n 3\n0 1x\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadEdgeList(strings.NewReader(tc.in), "bad"); err == nil {
				t.Fatalf("accepted %q", tc.in)
			}
		})
	}
}

func TestReadEdgeListCommentsAndBlanks(t *testing.T) {
	in := "# a comment\n\nn 3\n# another\n0 1\n\n1 2\n"
	g, err := ReadEdgeList(strings.NewReader(in), "commented")
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
}

func TestReadEdgeListIsolatedVertices(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("n 4\n0 1\n"), "sparse")
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.Degree(3) != 0 {
		t.Fatalf("isolated vertices lost: n=%d", g.N())
	}
}

// refReadEdgeList is the parse loop ReadEdgeList had when it scanned with
// fmt.Sscanf, kept as the reference for which inputs are rejected and
// with what error, plus the one rule added since: a number field ends
// with its digits (fmt's %d stopped reading there, so "n 0x10" declared
// 0 vertices and "0 1x" was edge (0,1)). It returns the declared vertex
// count and the error, or panicked for the one shape that loop crashed on
// (a bare "n" line). It never builds the graph, so a huge declared count
// costs nothing.
func refReadEdgeList(in string) (n int, err error, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	sc := bufio.NewScanner(strings.NewReader(in))
	n, lineNo := -1, 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "n" {
			if n >= 0 {
				return n, fmt.Errorf("graph: line %d: duplicate vertex-count header", lineNo), false
			}
			if _, err := fmt.Sscanf(fields[1], "%d", &n); err != nil || len(fields) != 2 || n < 0 || afterDigits(fields[1]) != "" {
				return n, fmt.Errorf("graph: line %d: bad header %q", lineNo, line), false
			}
			continue
		}
		if n < 0 {
			return n, fmt.Errorf("graph: line %d: edge before the \"n <count>\" header", lineNo), false
		}
		if len(fields) != 2 {
			return n, fmt.Errorf("graph: line %d: want \"u v\", got %q", lineNo, line), false
		}
		var u, v int
		if _, err := fmt.Sscanf(line, "%d %d", &u, &v); err != nil {
			return n, fmt.Errorf("graph: line %d: %v", lineNo, err), false
		}
		if rest := afterDigits(fields[1]); rest != "" {
			return n, fmt.Errorf("graph: line %d: unexpected %q after integer", lineNo, rest), false
		}
		if u < 0 || v < 0 || u >= n || v >= n || u == v {
			return n, fmt.Errorf("graph: line %d: invalid edge (%d,%d)", lineNo, u, v), false
		}
	}
	if err := sc.Err(); err != nil {
		return n, err, false
	}
	if n < 0 {
		return n, fmt.Errorf("graph: missing \"n <count>\" header"), false
	}
	return n, nil, false
}

// afterDigits returns what follows a number field's optional sign and
// decimal digits.
func afterDigits(field string) string {
	if field != "" && (field[0] == '+' || field[0] == '-') {
		field = field[1:]
	}
	return strings.TrimLeft(field, "0123456789")
}

// FuzzReadEdgeList: the shard wire carries the graph as untrusted bytes.
// The parser must never panic; it must reject exactly what the fmt-based
// parser rejected, with the same error, plus number fields with bytes
// after their digits (and vertex counts over its cap, and the bare "n"
// line that parser crashed on); and every graph it accepts must have no
// such field, and must re-serialise through WriteEdgeList and re-parse to
// the same Fingerprint.
func FuzzReadEdgeList(f *testing.F) {
	for _, g := range []*Graph{Line(5), Grid(3, 3), Star(4), NewBuilder(0).Build("empty")} {
		var sb strings.Builder
		if err := g.WriteEdgeList(&sb); err != nil {
			f.Fatal(err)
		}
		f.Add(sb.String())
	}
	for _, in := range []string{
		"", "n", "n\n0 1\n", "0 1\n", "n x\n", "n -1\n", "n 3 4\n", "n 3\nn 3\n",
		"n 12abc\n0 1x\n", "n 0x10\n", "n +3\n+0 -0\n", "n 3\n0 1 2\n", "n 3\n0 5\n",
		"n 3\n1 1\n", "n 3\na b\n", "n 3\n3x 1\n", "n 3\n1 x\n", "n 3\n- 1\n",
		"n 3\n1 -\n", "n 3\n1 +x\n", "n 99999999999999999999\n",
		"n 3\n99999999999999999999x 1\n", "n 3\n0 1\r\n", "n 1048577\n",
		"n 100000000000000\n0 0\n", "n 3\n0 1x\n5 5\n", "n 3\n0 +1\n",
	} {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		g, err := ReadEdgeList(strings.NewReader(in), "fuzz")
		refN, refErr, panicked := refReadEdgeList(in)
		switch {
		case panicked:
		case refErr != nil:
			if err == nil || err.Error() != refErr.Error() {
				t.Fatalf("%q: error %v, the fmt-based parser gave %v", in, err, refErr)
			}
		case err != nil && refN <= maxEdgeListVertices:
			t.Fatalf("%q: rejected (%v), the fmt-based parser accepted it", in, err)
		}
		if err != nil {
			return
		}
		for _, line := range strings.Split(in, "\n") {
			if fields := strings.Fields(line); len(fields) > 0 && !strings.HasPrefix(fields[0], "#") {
				for _, field := range fields {
					if field != "n" && afterDigits(field) != "" {
						t.Fatalf("%q: accepted the number field %q", in, field)
					}
				}
			}
		}
		var sb strings.Builder
		if err := g.WriteEdgeList(&sb); err != nil {
			t.Fatal(err)
		}
		back, err := ReadEdgeList(strings.NewReader(sb.String()), "again")
		if err != nil {
			t.Fatalf("%q: re-serialised form %q rejected: %v", in, sb.String(), err)
		}
		if back.Fingerprint() != g.Fingerprint() {
			t.Fatalf("%q: fingerprint changed over a round trip through %q", in, sb.String())
		}
	})
}

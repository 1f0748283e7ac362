package graph

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteEdgeList serializes the graph in a simple line format:
//
//	# optional comments
//	n <vertex-count>
//	<u> <v>        one edge per line
//
// ReadEdgeList parses the same format, so graphs round-trip.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n", g.name)
	fmt.Fprintf(bw, "n %d\n", g.N())
	for v := 0; v < g.N(); v++ {
		for _, w32 := range g.neighbors32(v) {
			if int(w32) > v {
				fmt.Fprintf(bw, "%d %d\n", v, w32)
			}
		}
	}
	return bw.Flush()
}

// maxEdgeListVertices caps the vertex count ReadEdgeList builds: the
// header is untrusted, and Build allocates per declared vertex.
const maxEdgeListVertices = 1 << 20

// ReadEdgeList parses the WriteEdgeList format. Blank lines and lines
// starting with '#' are ignored; the "n <count>" header must precede the
// first edge, and the count may not exceed 1<<20.
func ReadEdgeList(r io.Reader, name string) (*Graph, error) {
	sc := bufio.NewScanner(r)
	var b *Builder
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "n" {
			if b != nil {
				return nil, fmt.Errorf("graph: line %d: duplicate vertex-count header", lineNo)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph: line %d: bad header %q", lineNo, line)
			}
			n, err := scanInt(fields[1], true)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("graph: line %d: bad header %q", lineNo, line)
			}
			b = NewBuilder(n)
			continue
		}
		if b == nil {
			return nil, fmt.Errorf("graph: line %d: edge before the \"n <count>\" header", lineNo)
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("graph: line %d: want \"u v\", got %q", lineNo, line)
		}
		u, err := scanInt(fields[0], false)
		v := 0
		if err == nil {
			v, err = scanInt(fields[1], true)
		}
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		if u < 0 || v < 0 || u >= b.n || v >= b.n || u == v {
			return nil, fmt.Errorf("graph: line %d: invalid edge (%d,%d)", lineNo, u, v)
		}
		b.AddEdge(u, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if b == nil {
		return nil, fmt.Errorf("graph: missing \"n <count>\" header")
	}
	if b.n > maxEdgeListVertices {
		return nil, fmt.Errorf("graph: %d vertices exceed the edge-list limit of %d", b.n, maxEdgeListVertices)
	}
	return b.Build(name), nil
}

// scanInt reads an integer field: an optional sign, then decimal digits,
// and nothing after them. A field without digits, or the digits of one
// that is not last on its line running into other bytes, fails with the
// error fmt's %d verb gave in the parser's "%d %d" and "%d" formats, so
// those line errors read as they always have; the last field's trailing
// bytes, which %d never read, are rejected too.
func scanInt(field string, last bool) (int, error) {
	i := 0
	if field[0] == '+' || field[0] == '-' {
		i = 1
	}
	j := i
	for j < len(field) && '0' <= field[j] && field[j] <= '9' {
		j++
	}
	if j == i {
		if last && i == len(field) {
			return 0, io.EOF
		}
		return 0, errors.New("expected integer")
	}
	n, err := strconv.ParseInt(field[:j], 10, 64)
	if err == nil && j < len(field) {
		err = errors.New("expected space in input to match format")
		if last {
			err = fmt.Errorf("unexpected %q after integer", field[j:])
		}
	}
	return int(n), err
}

// Fingerprint returns a SHA-256 digest of the graph's structure: the
// vertex count followed by every edge {u, v} with u < v, in the canonical
// order induced by the sorted adjacency lists. Two graphs carry the same
// fingerprint iff they have identical vertex counts and edge sets,
// regardless of name or construction order, so semantically identical
// topologies hash equal. The digest is computed once on first call,
// cached, and safe for concurrent use (graphs are immutable after Build).
func (g *Graph) Fingerprint() [32]byte {
	g.fpOnce.Do(func() {
		h := sha256.New()
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(g.N()))
		h.Write(buf[:])
		for v := 0; v < g.N(); v++ {
			for _, w := range g.neighbors32(v) {
				if int(w) > v {
					binary.LittleEndian.PutUint32(buf[:4], uint32(v))
					binary.LittleEndian.PutUint32(buf[4:], uint32(w))
					h.Write(buf[:])
				}
			}
		}
		h.Sum(g.fp[:0])
	})
	return g.fp
}

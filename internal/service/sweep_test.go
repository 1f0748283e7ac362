package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func postSweep(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// decodeSweep splits an NDJSON sweep response into cell lines and the
// final summary line.
func decodeSweep(t *testing.T, body *bytes.Buffer) ([]SweepCellResponse, SweepSummary) {
	t.Helper()
	var cells []SweepCellResponse
	var summary SweepSummary
	sawSummary := false
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if sawSummary {
			t.Fatalf("line after summary: %s", line)
		}
		if strings.Contains(line, `"done"`) {
			if err := json.Unmarshal([]byte(line), &summary); err != nil {
				t.Fatalf("bad summary line %q: %v", line, err)
			}
			sawSummary = true
			continue
		}
		var c SweepCellResponse
		if err := json.Unmarshal([]byte(line), &c); err != nil {
			t.Fatalf("bad cell line %q: %v", line, err)
		}
		cells = append(cells, c)
	}
	if !sawSummary {
		t.Fatalf("no summary line in response:\n%s", body.String())
	}
	return cells, summary
}

// TestSweepStreamsCells: a 2×2 grid must stream four cell lines (every
// index exactly once) plus a done summary, all simulated on first
// contact.
func TestSweepStreamsCells(t *testing.T) {
	s := New(Options{})
	w := postSweep(t, s.Handler(), `{
		"graphs": ["line:8", "star:6"],
		"ps": [0.2, 0.5],
		"trials": 80,
		"seed": 7
	}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	cells, summary := decodeSweep(t, w.Body)
	if len(cells) != 4 || !summary.Done || summary.Cells != 4 {
		t.Fatalf("got %d cells, summary %+v", len(cells), summary)
	}
	seen := map[int]bool{}
	for _, c := range cells {
		if seen[c.Index] {
			t.Fatalf("index %d emitted twice", c.Index)
		}
		seen[c.Index] = true
		if c.Served != "simulated" || c.TrialsSimulated != c.Trials || c.Trials != 80 {
			t.Fatalf("first-contact cell not simulated in full: %+v", c)
		}
		if c.Key == "" || c.Graph == "" || c.Rounds <= 0 || c.N <= 0 {
			t.Fatalf("cell metadata incomplete: %+v", c)
		}
	}
	if summary.TrialsSimulated != 4*80 || summary.CacheHits != 0 {
		t.Fatalf("summary tallies off: %+v", summary)
	}
}

// TestSweepCellCacheReuse: repeating a sweep must answer every cell from
// the tally store with zero simulation, and a larger budget must top the
// stored cells up by the marginal trials only.
func TestSweepCellCacheReuse(t *testing.T) {
	s := New(Options{})
	body := `{"graphs": ["line:8"], "ps": [0.2, 0.5], "trials": 60, "seed": 7}`
	first := postSweep(t, s.Handler(), body)
	if first.Code != http.StatusOK {
		t.Fatalf("first sweep: %d", first.Code)
	}
	firstCells, _ := decodeSweep(t, first.Body)

	second := postSweep(t, s.Handler(), body)
	cells, summary := decodeSweep(t, second.Body)
	if len(cells) != 2 {
		t.Fatalf("got %d cells", len(cells))
	}
	for _, c := range cells {
		if c.Served != "cache" || c.TrialsSimulated != 0 {
			t.Fatalf("repeat sweep cell not served from cache: %+v", c)
		}
	}
	if summary.CacheHits != 2 || summary.TrialsSimulated != 0 {
		t.Fatalf("repeat summary %+v", summary)
	}
	for i, c := range cells {
		var match *SweepCellResponse
		for j := range firstCells {
			if firstCells[j].Index == c.Index {
				match = &firstCells[j]
			}
		}
		if match == nil || match.Rate != c.Rate || match.Trials != c.Trials {
			t.Fatalf("cell %d: cached answer differs from original: %+v vs %+v", i, c, match)
		}
	}

	// A larger budget tops cells up instead of recomputing them.
	third := postSweep(t, s.Handler(), `{"graphs": ["line:8"], "ps": [0.2, 0.5], "trials": 100, "seed": 7}`)
	cells, summary = decodeSweep(t, third.Body)
	for _, c := range cells {
		if c.Served != "refined" || c.TrialsSimulated != 40 || c.Trials != 100 {
			t.Fatalf("top-up cell not refined by the marginal trials: %+v", c)
		}
	}
	if summary.Refined != 2 || summary.TrialsSimulated != 80 {
		t.Fatalf("top-up summary %+v", summary)
	}

	// The compiled sweep itself is cached by grid identity: the repeat of
	// the first body hit the sweep-plan LRU instead of recompiling, and
	// sweep compiles tick the plan counters like estimate traffic does.
	st := s.Stats()
	if st.PlanCacheHits < 1 {
		t.Fatalf("repeat sweep recompiled its grid: %+v", st)
	}
	if st.PlanCompiles < 2 {
		t.Fatalf("sweep compiles not counted: %+v", st)
	}
}

// TestSweepValidation: structural errors must come back as structured
// 400s before any simulation.
func TestSweepValidation(t *testing.T) {
	s := New(Options{MaxSweepCells: 8})
	cases := []struct {
		body string
		code string
	}{
		{`{`, "bad-json"},
		{`{"ps": [0.5]}`, "bad-request"},                                 // no graphs
		{`{"graphs": ["line:8"]}`, "bad-request"},                        // no ps
		{`{"graphs": ["nope:8"], "ps": [0.5]}`, "bad-request"},           // bad spec
		{`{"graphs": ["file:/etc/passwd"], "ps": [0.5]}`, "bad-request"}, // file spec
		{`{"graphs": ["line:8"], "ps": [1.5]}`, "bad-request"},           // p range
		{`{"graphs": ["line:8"], "ps": [0.5], "models": ["carrier"]}`, "bad-request"},
		{`{"graphs": ["line:8"], "ps": [0.5], "source": 12}`, "bad-request"},
		{`{"graphs": ["line:9000"], "ps": [0.5]}`, "graph-too-large"},
		{`{"graphs": ["line:8"], "ps": [0.1, 0.2, 0.3], "models": ["mp", "radio"],
		   "faults": ["omission", "malicious"]}`, "sweep-too-large"}, // 12 > 8 cells
		{`{"graphs": ["line:8"], "ps": [0.5], "models": ["radio"],
		   "algorithms": ["flooding"]}`, "bad-request"}, // compile-time mismatch
	}
	for i, tc := range cases {
		w := postSweep(t, s.Handler(), tc.body)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("case %d: status %d body %s", i, w.Code, w.Body.String())
		}
		var er ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if er.Code != tc.code {
			t.Fatalf("case %d: code %q, want %q (%s)", i, er.Code, tc.code, er.Error)
		}
	}
	if got := s.Stats().BadRequests; got != uint64(len(cases)) {
		t.Fatalf("bad request counter %d, want %d", got, len(cases))
	}
}

// TestSweepStatsAndScenarios: the new counters and limits must surface.
func TestSweepStatsAndScenarios(t *testing.T) {
	s := New(Options{})
	postSweep(t, s.Handler(), `{"graphs": ["line:8"], "ps": [0.3], "trials": 40}`)
	st := s.Stats()
	if st.SweepRequests != 1 || st.SweepCells != 1 {
		t.Fatalf("sweep counters missing: %+v", st)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/scenarios", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	var info ScenarioInfo
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Limits.MaxSweepCells != 1024 {
		t.Fatalf("scenarios limits missing sweep cap: %+v", info.Limits)
	}
}

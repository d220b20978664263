package experiment

import (
	"strings"
	"testing"
)

func TestPlotRenderBasic(t *testing.T) {
	p := &Plot{
		Title:  "T",
		XLabel: "x",
		YLabel: "y",
		Series: []Series{
			{Name: "a", Marker: 'a', Points: []Point{{0, 0}, {10, 10}}},
			{Name: "b", Marker: 'b', Points: []Point{{0, 10}, {10, 0}}},
		},
	}
	var sb strings.Builder
	if err := p.Render(&sb, 40, 10); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"T", "a=a", "b=b", "(x)", "y: y"} {
		if !strings.Contains(out, want) {
			t.Fatalf("plot missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(out, "\n")
	// Corners: series a rises left-bottom to right-top; b the opposite.
	var gridLines []string
	for _, l := range lines {
		if strings.Contains(l, "|") {
			gridLines = append(gridLines, l[strings.Index(l, "|")+1:])
		}
	}
	if len(gridLines) != 10 {
		t.Fatalf("grid rows = %d", len(gridLines))
	}
	top, bottom := gridLines[0], gridLines[len(gridLines)-1]
	if !strings.Contains(top, "a") || !strings.Contains(top, "b") {
		t.Fatalf("top row missing markers: %q", top)
	}
	if !strings.Contains(bottom, "a") || !strings.Contains(bottom, "b") {
		t.Fatalf("bottom row missing markers: %q", bottom)
	}
	// a's top-row marker is to the right of b's.
	if strings.Index(top, "a") < strings.Index(top, "b") {
		t.Fatal("series a should peak on the right")
	}
}

func TestPlotLogScale(t *testing.T) {
	p := &Plot{
		Title: "L", XLabel: "x", YLabel: "v", LogY: true,
		Series: []Series{{Name: "s", Marker: '*', Points: []Point{{1, 10}, {2, 1000}}}},
	}
	var sb strings.Builder
	if err := p.Render(&sb, 30, 8); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "log scale") {
		t.Fatal("log scale not labelled")
	}
	// Non-positive y must be rejected on log axes.
	p.Series[0].Points = append(p.Series[0].Points, Point{X: 3, Y: 0})
	if err := p.Render(&sb, 30, 8); err == nil {
		t.Fatal("non-positive log y accepted")
	}
}

func TestPlotValidation(t *testing.T) {
	p := &Plot{Title: "E"}
	var sb strings.Builder
	if err := p.Render(&sb, 40, 10); err == nil {
		t.Fatal("empty plot accepted")
	}
}

func TestPlotDegenerateRanges(t *testing.T) {
	// A single point (zero x and y span) must render without dividing by
	// zero.
	p := &Plot{
		Title: "D", XLabel: "x", YLabel: "y",
		Series: []Series{{Name: "s", Marker: '*', Points: []Point{{5, 5}}}},
	}
	var sb strings.Builder
	if err := p.Render(&sb, 25, 8); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "*") {
		t.Fatal("lone point not drawn")
	}
}

func TestFig1Plot(t *testing.T) {
	tab, err := Fig1(Config{Scale: Quick})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Fig1Plot(tab)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := p.Render(&sb, 60, 16); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "m=media") || !strings.Contains(out, "S=cut-through") {
		t.Fatalf("fig1 plot legend missing:\n%s", out)
	}
	// The switching series must sit strictly above the media series:
	// every 'S' row index is above (less than) the lowest 'm' row.
	lines := strings.Split(out, "\n")
	lastS, firstM := -1, len(lines)
	for i, l := range lines {
		if !strings.Contains(l, "|") {
			continue
		}
		body := l[strings.Index(l, "|")+1:]
		if strings.Contains(body, "S") && i > lastS {
			lastS = i
		}
		if strings.Contains(body, "m") && i < firstM {
			firstM = i
		}
	}
	if lastS >= firstM {
		t.Fatalf("switching series not strictly above media series (lastS=%d firstM=%d)", lastS, firstM)
	}
}

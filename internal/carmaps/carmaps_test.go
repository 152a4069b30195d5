package carmaps

import (
	"context"
	"strings"
	"testing"

	"webbase/internal/navcalc"
	"webbase/internal/navmap"
	"webbase/internal/sites"
)

func TestAllMapsValidateAndTranslate(t *testing.T) {
	for name, m := range AllMaps() {
		if err := m.Validate(); err != nil {
			t.Errorf("map %s invalid: %v", name, err)
			continue
		}
		expr, err := navmap.Translate(m)
		if err != nil {
			t.Errorf("map %s translation: %v", name, err)
			continue
		}
		if expr.Name != name {
			t.Errorf("expression name %q for map %q", expr.Name, name)
		}
	}
	if len(AllMaps()) != 13 {
		t.Errorf("expected 13 maps (12 sites + newsdayCarFeatures), got %d", len(AllMaps()))
	}
}

// TestDerivedExpressionsRunAgainstWorld executes the automatically derived
// expression for each map against the simulated Web with the ford/escort
// query of Section 7 and checks the result against the dataset oracle.
func TestDerivedExpressionsRunAgainstWorld(t *testing.T) {
	w := sites.BuildWorld()
	inputs := map[string]string{"Make": "ford", "Model": "escort"}

	cases := []struct {
		mapName string
		host    string // dataset host for the oracle; "" = no ad oracle
		want    func() int
	}{
		{"newsday", sites.NewsdayHost, nil},
		{"nyTimes", sites.NYTimesHost, nil},
		{"carPoint", sites.CarPointHost, nil},
		{"autoWeb", sites.AutoWebHost, nil},
		{"wwWheels", sites.WWWheelsHost, nil},
		{"yahooCars", sites.YahooCarsHost, nil},
	}
	maps := AllMaps()
	for _, c := range cases {
		t.Run(c.mapName, func(t *testing.T) {
			expr, err := navmap.Translate(maps[c.mapName])
			if err != nil {
				t.Fatal(err)
			}
			rel, info, err := expr.Execute(context.Background(), w.Server, inputs)
			if err != nil {
				t.Fatal(err)
			}
			want := len(w.Datasets[c.host].ByMakeModel("ford", "escort"))
			if rel.Len() != want {
				t.Errorf("collected %d tuples, dataset has %d", rel.Len(), want)
			}
			if info.PathLength < 2 {
				t.Errorf("suspiciously short path: %d", info.PathLength)
			}
		})
	}
}

func TestNewYorkDailyFullMake(t *testing.T) {
	// NewYorkDaily's form only takes make; the oracle is all fords.
	w := sites.BuildWorld()
	expr, err := navmap.Translate(AllMaps()["newYorkDaily"])
	if err != nil {
		t.Fatal(err)
	}
	rel, _, err := expr.Execute(context.Background(), w.Server, map[string]string{"Make": "ford"})
	if err != nil {
		t.Fatal(err)
	}
	want := len(w.Datasets[sites.NewYorkDailyHost].ByMake("ford"))
	if rel.Len() != want {
		t.Errorf("collected %d, want %d", rel.Len(), want)
	}
}

func TestAutoConnectNeedsCondition(t *testing.T) {
	w := sites.BuildWorld()
	expr, err := navmap.Translate(AllMaps()["autoConnect"])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := expr.Execute(context.Background(), w.Server, map[string]string{"Make": "ford"}); err == nil {
		t.Error("autoConnect without Condition should fail (mandatory radio)")
	}
	rel, _, err := expr.Execute(context.Background(), w.Server, map[string]string{"Make": "ford", "Condition": "good"})
	if err != nil {
		t.Fatal(err)
	}
	oracle := 0
	for _, a := range w.Datasets[sites.AutoConnectHost].ByMake("ford") {
		if a.Condition == "good" {
			oracle++
		}
	}
	if rel.Len() != oracle {
		t.Errorf("collected %d, want %d", rel.Len(), oracle)
	}
}

func TestReferenceSiteExpressions(t *testing.T) {
	w := sites.BuildWorld()
	maps := AllMaps()

	t.Run("kellys", func(t *testing.T) {
		expr, _ := navmap.Translate(maps["kellys"])
		rel, _, err := expr.Execute(context.Background(), w.Server, map[string]string{
			"Make": "jaguar", "Model": "xj6", "Year": "1994", "Condition": "good"})
		if err != nil {
			t.Fatal(err)
		}
		if rel.Len() != 1 {
			t.Fatalf("rows = %d", rel.Len())
		}
		bb, _ := rel.Get(rel.Tuples()[0], "BBPrice")
		if int(bb.IntVal()) != sites.BlueBook("jaguar", "xj6", 1994, "good") {
			t.Errorf("bbprice = %v", bb)
		}
	})

	t.Run("carAndDriver", func(t *testing.T) {
		expr, _ := navmap.Translate(maps["carAndDriver"])
		rel, _, err := expr.Execute(context.Background(), w.Server, map[string]string{"Make": "jaguar"})
		if err != nil {
			t.Fatal(err)
		}
		if rel.Len() != len(sites.Catalog["jaguar"]) {
			t.Errorf("rows = %d", rel.Len())
		}
	})

	t.Run("carReviews", func(t *testing.T) {
		expr, _ := navmap.Translate(maps["carReviews"])
		rel, _, err := expr.Execute(context.Background(), w.Server, map[string]string{"Make": "honda", "Model": "civic"})
		if err != nil {
			t.Fatal(err)
		}
		if rel.Len() != 1 {
			t.Fatalf("rows = %d", rel.Len())
		}
	})

	t.Run("carFinance", func(t *testing.T) {
		expr, _ := navmap.Translate(maps["carFinance"])
		rel, _, err := expr.Execute(context.Background(), w.Server, map[string]string{"ZipCode": "11201", "Duration": "36"})
		if err != nil {
			t.Fatal(err)
		}
		if rel.Len() != 1 {
			t.Fatalf("rows = %d", rel.Len())
		}
	})

	t.Run("newsdayCarFeatures", func(t *testing.T) {
		// First get a Url via the newsday relation, then enter directly.
		newsday, _ := navmap.Translate(maps["newsday"])
		ads, _, err := newsday.Execute(context.Background(), w.Server, map[string]string{"Make": "ford", "Model": "escort"})
		if err != nil {
			t.Fatal(err)
		}
		u, _ := ads.Get(ads.Tuples()[0], "Url")
		feats, _ := navmap.Translate(maps["newsdayCarFeatures"])
		rel, _, err := feats.Execute(context.Background(), w.Server, map[string]string{"Url": u.Str()})
		if err != nil {
			t.Fatal(err)
		}
		if rel.Len() != 1 {
			t.Fatalf("rows = %d", rel.Len())
		}
		gotURL, _ := rel.Get(rel.Tuples()[0], "Url")
		if gotURL.Str() != u.Str() {
			t.Errorf("Url echo = %v, want %v", gotURL, u)
		}
		f, _ := rel.Get(rel.Tuples()[0], "Features")
		if f.Str() == "" {
			t.Error("empty features")
		}
		// Without the Url input the expression must fail.
		if _, _, err := feats.Execute(context.Background(), w.Server, nil); err == nil {
			t.Error("missing Url input should fail")
		}
	})
}

// TestTextualSyntaxCoversAllMaps: every map's derived expression prints
// wholly in the textual syntax: each step as follow(...), submit(...) or
// extract(...), never as the Name() an action falls back to, and a rule
// line for every rule of its program.
func TestTextualSyntaxCoversAllMaps(t *testing.T) {
	for name, m := range AllMaps() {
		t.Run(name, func(t *testing.T) {
			expr, err := navmap.Translate(m)
			if err != nil {
				t.Fatal(err)
			}
			text := navcalc.FormatExpression(expr)
			for _, fallback := range []string{"(link ", "(form ", "tuple["} {
				if strings.Contains(text, fallback) {
					t.Errorf("a step printed as its Name(), %q:\n%s", fallback, text)
				}
			}
			for _, rule := range expr.Program.Names() {
				if !strings.Contains(text, "\nrule "+rule+" = ") {
					t.Errorf("rule %s not printed:\n%s", rule, text)
				}
			}
		})
	}
}

// TestFigure2Rendering pins Figure 2 byte for byte: the newsday map the
// webbase runs, as an adjacency listing and as Graphviz DOT.
func TestFigure2Rendering(t *testing.T) {
	const wantText = `navigation map newsday (Make, Model, Year, Price, Contact, Url)
  start: newsdayPg (http://newsday.example/)
  newsdayPg
    --link(Automobiles)--> UsedCarPg
  UsedCarPg
    --form f1(make)--> carData
    --form f1(make)--> carPg
  carPg
    --form f2(model, featrs)--> carData
  carData [data]
    --link(More)--> carData
`
	const wantDOT = `digraph "newsday" {
  rankdir=TB;
  "newsdayPg" [shape=box,label="newsday"];
  "UsedCarPg" [shape=box,label="UsedCarPg"];
  "carPg" [shape=box,label="carPg"];
  "carData" [shape=ellipse,label="carData(make, model, year, ...)"];
  "newsdayPg" -> "UsedCarPg" [label="link(Automobiles)"];
  "UsedCarPg" -> "carData" [label="form f1(make)"];
  "UsedCarPg" -> "carPg" [label="form f1(make)"];
  "carPg" -> "carData" [label="form f2(model, featrs)"];
  "carData" -> "carData" [label="link(More)"];
}
`
	m := AllMaps()["newsday"]
	if got := m.String(); got != wantText {
		t.Errorf("Figure 2 text =\n%s\nwant\n%s", got, wantText)
	}
	if got := m.DOT(); got != wantDOT {
		t.Errorf("Figure 2 DOT =\n%s\nwant\n%s", got, wantDOT)
	}
}

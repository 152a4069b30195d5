package navmap_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"webbase/internal/apartments"
	"webbase/internal/carmaps"
	"webbase/internal/navcalc"
	"webbase/internal/navmap"
	"webbase/internal/sites"
)

// TestMapJSONRoundTrip saves and reloads every standard map, then checks
// the reloaded map behaves identically (same derived expression results).
func TestMapJSONRoundTrip(t *testing.T) {
	w := sites.BuildWorld()
	inputs := map[string]map[string]string{
		"newsday":            {"Make": "ford", "Model": "escort"},
		"nyTimes":            {"Make": "ford", "Model": "escort"},
		"newYorkDaily":       {"Make": "ford"},
		"carPoint":           {"Make": "ford", "Model": "escort"},
		"autoWeb":            {"Make": "ford", "Model": "escort"},
		"wwWheels":           {"Make": "ford", "Model": "escort"},
		"autoConnect":        {"Make": "ford", "Condition": "good"},
		"yahooCars":          {"Make": "ford", "Model": "escort"},
		"kellys":             {"Make": "jaguar", "Model": "xj6", "Condition": "good"},
		"carAndDriver":       {"Make": "jaguar"},
		"carReviews":         {"Make": "honda", "Model": "civic"},
		"carFinance":         {"ZipCode": "11201"},
		"newsdayCarFeatures": nil, // needs a live Url; round-trip structurally only
	}
	for name, m := range carmaps.AllMaps() {
		t.Run(name, func(t *testing.T) {
			data, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			var loaded navmap.Map
			if err := json.Unmarshal(data, &loaded); err != nil {
				t.Fatal(err)
			}
			// Structural identity.
			n1, e1 := len(m.Nodes()), len(m.Edges())
			n2, e2 := len(loaded.Nodes()), len(loaded.Edges())
			if n1 != n2 || e1 != e2 || m.Start != loaded.Start || m.Name != loaded.Name {
				t.Fatalf("structure changed: (%d,%d,%s) vs (%d,%d,%s)", n1, e1, m.Start, n2, e2, loaded.Start)
			}
			if loaded.String() != m.String() {
				t.Fatalf("rendering changed:\n%s\nvs\n%s", m, &loaded)
			}
			// Behavioural identity.
			in := inputs[name]
			if in == nil {
				return
			}
			origExpr, err := navmap.Translate(m)
			if err != nil {
				t.Fatal(err)
			}
			loadedExpr, err := navmap.Translate(&loaded)
			if err != nil {
				t.Fatal(err)
			}
			origRel, _, err := origExpr.Execute(context.Background(), w.Server, in)
			if err != nil {
				t.Fatal(err)
			}
			loadedRel, _, err := loadedExpr.Execute(context.Background(), w.Server, in)
			if err != nil {
				t.Fatal(err)
			}
			if origRel.Len() != loadedRel.Len() {
				t.Errorf("tuples: %d vs %d", origRel.Len(), loadedRel.Len())
			}
		})
	}
}

func TestMapJSONErrors(t *testing.T) {
	var m navmap.Map
	cases := map[string]string{
		"garbage":      `{`,
		"bad version":  `{"version": 99, "name": "x"}`,
		"unknown kind": `{"version":1,"name":"x","start_url":"http://x/","schema":["A"],"start":"d","nodes":[{"id":"d","is_data":true,"extract":{"columns":[{"header":"A","attr":"A"}]}}],"edges":[{"from":"d","to":"d","action":{"kind":"teleport"}}]}`,
		"invalid map":  `{"version":1,"name":"x","schema":["A"],"start":"missing","nodes":[],"edges":[]}`,
	}
	for name, data := range cases {
		if err := json.Unmarshal([]byte(data), &m); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestMapJSONStableFields(t *testing.T) {
	data, err := json.Marshal(carmaps.AllMaps()["newsday"])
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{`"version":2`, `"fingerprint":"`, `"name":"newsday"`, `"kind":"submit"`,
		`"link_name":"Car Features"`, `"form_name":"f1"`} {
		if !strings.Contains(s, want) {
			t.Errorf("serialized form missing %q:\n%s", want, s)
		}
	}
}

// TestMapJSONRepairedEdgeRoundTrip is the regression test for the v2
// format carrying repaired edges: a map whose edge was re-anchored onto a
// renamed link must round-trip byte-identically (including its
// fingerprint), and the reloaded copy must keep the repaired name.
func TestMapJSONRepairedEdgeRoundTrip(t *testing.T) {
	m := carmaps.AllMaps()["newsday"].Clone()
	renamed := false
	for _, e := range m.Edges() {
		if e.Action.LinkName == "Automobiles" {
			e.Action.LinkName = "Cars & Trucks" // the post-redesign name
			renamed = true
		}
	}
	if !renamed {
		t.Fatal("newsday map no longer has the Automobiles edge")
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var loaded navmap.Map
	if err := json.Unmarshal(data, &loaded); err != nil {
		t.Fatal(err)
	}
	if got, want := navmap.Fingerprint(&loaded), navmap.Fingerprint(m); got != want {
		t.Errorf("fingerprint changed across round trip: %s vs %s", got, want)
	}
	if fp, base := navmap.Fingerprint(m), navmap.Fingerprint(carmaps.AllMaps()["newsday"]); fp == base {
		t.Error("repaired map has the same fingerprint as the base map")
	}
	kept := false
	for _, e := range loaded.Edges() {
		if e.Action.LinkName == "Cars & Trucks" {
			kept = true
		}
	}
	if !kept {
		t.Error("repaired link name lost across round trip")
	}
	again, err := json.Marshal(&loaded)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Error("serialized form not byte-identical across round trip")
	}
}

// version1Map is a fingerprint-free version-1 map file.
const version1Map = `{"version":1,"name":"x","start_url":"http://x/","schema":["A"],"start":"d","nodes":[{"id":"d","is_data":true,"extract":{"columns":[{"header":"A","attr":"A"}]}}],"edges":[]}`

// patternMap is version1Map with a label–value pattern on its data node's
// extract, an extraction mode maps no longer have.
const patternMap = `{"version":1,"name":"x","start_url":"http://x/","schema":["A"],"start":"d","nodes":[{"id":"d","is_data":true,"extract":{"columns":[{"header":"A","attr":"A"}],"pattern":{"item_tag":"h3","fields":[{"label":"A","attr":"A"}]}}}],"edges":[]}`

// TestMapJSONVersion1Accepted: fingerprint-free v1 files (written before
// the format bump) still load.
func TestMapJSONVersion1Accepted(t *testing.T) {
	var m navmap.Map
	if err := json.Unmarshal([]byte(version1Map), &m); err != nil {
		t.Fatalf("v1 map rejected: %v", err)
	}
	if m.Name != "x" {
		t.Errorf("loaded name %q", m.Name)
	}
}

// TestMapJSONCorruptFingerprintRejected: a v2 file whose content no
// longer matches its fingerprint is refused instead of silently loaded.
func TestMapJSONCorruptFingerprintRejected(t *testing.T) {
	data, err := json.Marshal(carmaps.AllMaps()["newsday"])
	if err != nil {
		t.Fatal(err)
	}
	corrupt := strings.Replace(string(data), `"name":"newsday"`, `"name":"tampered"`, 1)
	var m navmap.Map
	err = json.Unmarshal([]byte(corrupt), &m)
	if err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corrupt map loaded: err=%v", err)
	}
}

// TestMapJSONPatternRefused: a map whose extract names a label–value
// pattern is refused with an error naming the node, not loaded as if the
// pattern were not there.
func TestMapJSONPatternRefused(t *testing.T) {
	_, err := navmap.DecodeMap([]byte(patternMap))
	if err == nil || !strings.Contains(err.Error(), "node d ") || !strings.Contains(err.Error(), "pattern") {
		t.Fatalf("err = %v, want a refusal naming node d and its pattern", err)
	}
}

// FuzzDecodeMap: a map DecodeMap accepts translates, prints and re-encodes
// to a fixed point, and one whose extract names pattern is refused. The
// seeds are every map of both domains, which carry fingerprints, and two
// version-1 maps without one, which mutations get past the fingerprint
// check more often.
func FuzzDecodeMap(f *testing.F) {
	for _, maps := range []map[string]*navmap.Map{carmaps.AllMaps(), apartments.Maps()} {
		for _, m := range maps {
			data, err := navmap.EncodeMap(m)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Add([]byte(version1Map))
	f.Add([]byte(patternMap))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := navmap.DecodeMap(data)
		if namesPattern(data) {
			if err == nil {
				t.Fatal("a map whose extract names pattern was accepted")
			}
			return
		}
		if err != nil {
			return
		}
		e, err := navmap.Translate(m)
		if err != nil {
			t.Fatalf("an accepted map does not translate: %v", err)
		}
		enc, err := navmap.EncodeMap(m)
		if err != nil {
			t.Fatal(err)
		}
		again, err := navmap.DecodeMap(enc)
		if err != nil {
			t.Fatalf("a re-encoded map is refused: %v\n%s", err, enc)
		}
		if enc2, err := navmap.EncodeMap(again); err != nil || !bytes.Equal(enc2, enc) {
			t.Fatalf("re-encoding is not a fixed point: %v\n%s\nvs\n%s", err, enc, enc2)
		}
		e2, err := navmap.Translate(again)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := navcalc.FormatExpression(e2), navcalc.FormatExpression(e); got != want {
			t.Fatalf("the re-decoded map prints\n%s\nnot\n%s", got, want)
		}
	})
}

// namesPattern reports whether a node's extract in data has a key that
// encoding/json decodes into the pattern field: it matches names without
// regard to case.
func namesPattern(data []byte) bool {
	var in struct {
		Nodes []struct {
			Extract map[string]json.RawMessage `json:"extract"`
		} `json:"nodes"`
	}
	if json.Unmarshal(data, &in) != nil {
		return false
	}
	for _, n := range in.Nodes {
		for k := range n.Extract {
			if strings.EqualFold(k, "pattern") {
				return true
			}
		}
	}
	return false
}

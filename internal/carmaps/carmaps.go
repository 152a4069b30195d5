// Package carmaps holds the navigation maps of the simulated car-shopping
// Web: one map per VPS relation of Table 1, plus maps for the timing-table
// sites that Table 1 omits. Each map's one source is its recorded
// mapping-by-example session (Sessions); the map builder's output for
// every session is checked in under maps/, and that is what the VPS layer
// executes. Re-record the files after changing a session or the builder:
//
//	go run ./cmd/mapbuild -save internal/carmaps/maps
package carmaps

import (
	"context"
	"embed"
	"fmt"
	"sort"

	"webbase/internal/mapbuilder"
	"webbase/internal/navmap"
	"webbase/internal/web"
)

//go:embed maps/*.json
var mapFiles embed.FS

// AllMaps returns every standard map, keyed by VPS relation name, decoded
// afresh from the built map files on every call. A file that does not
// decode — bad syntax, a fingerprint that does not match its content, an
// invalid graph — is a defect of the build itself, and panics.
func AllMaps() map[string]*navmap.Map {
	files, err := mapFiles.ReadDir("maps")
	if err != nil {
		panic(err)
	}
	out := make(map[string]*navmap.Map, len(files))
	for _, f := range files {
		data, err := mapFiles.ReadFile("maps/" + f.Name())
		if err != nil {
			panic(err)
		}
		m, err := navmap.DecodeMap(data)
		if err != nil {
			panic(fmt.Sprintf("carmaps: %s: %v", f.Name(), err))
		}
		out[m.Name] = m
	}
	return out
}

// SampleInputs are inputs every car map's forms accept, so a walk through
// any site's forms can fill them; the make/model pair is one the
// simulated sites list, so a walk reaches data pages.
var SampleInputs = map[string]string{
	"Make": "ford", "Model": "escort", "Condition": "good",
	"Year": "1994", "ZipCode": "11201", "Duration": "36",
}

// Built is one recorded session's map as the map builder builds it, with
// the automation statistics of the build.
type Built struct {
	Map   *navmap.Map
	Stats *mapbuilder.Stats
}

// MapStats replays every recorded session (Sessions) over f, browsing
// newsdayCarFeatures from a features URL it samples first, and returns
// each built map with its Section 7 statistics (Newsday: "85 objects with
// over 600 attributes ... less than 5% added manually"), in site order.
func MapStats(f web.Fetcher) ([]Built, error) {
	featURL, err := sampleFeaturesURL(f)
	if err != nil {
		return nil, err
	}
	b := &mapbuilder.Builder{Fetcher: f}
	var out []Built
	for _, s := range Sessions(featURL) {
		m, stats, err := b.Build(s)
		if err != nil {
			return nil, fmt.Errorf("carmaps: mapping %s: %w", s.Relation, err)
		}
		out = append(out, Built{m, stats})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stats.Site < out[j].Stats.Site })
	return out, nil
}

// sampleFeaturesURL returns one live car-features URL — what the
// newsdayCarFeatures session browses from — by running the newsday
// relation for a ford escort and reading the first ad's Url.
func sampleFeaturesURL(f web.Fetcher) (string, error) {
	expr, err := navmap.Translate(AllMaps()["newsday"])
	if err != nil {
		return "", err
	}
	rel, _, err := expr.Execute(context.Background(), f, map[string]string{"Make": "ford", "Model": "escort"})
	if err != nil {
		return "", fmt.Errorf("carmaps: sampling a features URL: %w", err)
	}
	if rel.Len() == 0 {
		return "", fmt.Errorf("carmaps: sampling a features URL: newsday returned no ads")
	}
	u, _ := rel.Get(rel.Tuples()[0], "Url")
	return u.Str(), nil
}

package sites

import (
	"fmt"

	"webbase/internal/web"
)

// ScaledWorld is a parameterized simulated Web of n single-form dealer
// sites (the WWWheels shape), used to study how evaluation scales with
// site count beyond the paper's ten sites.
type ScaledWorld struct {
	Server *web.Server
	Hosts  []string
}

// ScaledHost returns the host name of the i-th generated dealer.
func ScaledHost(i int) string { return fmt.Sprintf("dealer%03d.example", i) }

// BuildScaledWorld generates n dealer sites with independent seeded
// datasets. Deterministic for a given n.
func BuildScaledWorld(n int) *ScaledWorld {
	w := &ScaledWorld{Server: web.NewServer()}
	for i := 0; i < n; i++ {
		host := ScaledHost(i)
		w.Server.Register(scaledDealer(host, NewDataset(int64(1000+i), 120)).Web())
		w.Hosts = append(w.Hosts, host)
	}
	return w
}

// scaledDealer is the WWWheels shape on an arbitrary host, tidy and
// without the sidebar: one form on the home page, one unpaginated result
// table.
func scaledDealer(host string, ds *Dataset) Site {
	return Site{Host: host, Pages: map[string]Page{
		"/": &Static{Title: host, Heading: host, Form: makeModelForm("q", "/cgi-bin/q", "get")},
		"/cgi-bin/q": &Script[*Ad]{Title: host + " results", Heading: "{total} cars",
			Inputs: []string{"make", "model"}, Required: []string{"make"}, Missing: "make is required",
			Rows: byMakeModel(ds), Columns: dealerCols},
	}}
}

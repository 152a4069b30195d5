package sites

import (
	"fmt"
	"strconv"

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
		ds := NewDataset(int64(1000+i), 120)
		w.Server.Register(scaledDealer(host, ds))
		w.Hosts = append(w.Hosts, host)
	}
	return w
}

// scaledDealer is the WWWheels shape on an arbitrary host: one form on the
// home page, one unpaginated result table.
func scaledDealer(host string, ds *Dataset) web.Site {
	m := web.NewMux(host)
	base := "http://" + host
	makes := Makes()

	m.Handle("/", staticPage(host, false, func(p *pageBuilder) {
		p.heading(host)
		p.form("q", base+"/cgi-bin/q", "get",
			selectField("make", makes...),
			textField("model"))
	}))
	m.Handle("/cgi-bin/q", web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		mk := req.Param("make")
		if mk == "" {
			return errorPage(req, false, "make is required"), nil
		}
		ads := ds.ByMakeModel(mk, req.Param("model"))
		return render(req.URL, host+" results", false, func(p *pageBuilder) {
			p.heading(strconv.Itoa(len(ads)), " cars")
			p.adTable(dealerCols, ads)
		}), nil
	}))
	return m
}

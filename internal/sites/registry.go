package sites

import "webbase/internal/web"

// World is the assembled simulated Web together with the ground-truth
// datasets backing each classifieds/dealer site, which tests and the
// experiment harness use as oracles, and the sites' values.
type World struct {
	Server   *web.Server
	Datasets map[string]*Dataset // host → backing dataset (ad-carrying sites only)
	Sites    []Site              // in the order of world
}

// world is the simulated Web, one line a site: the seed and the number of
// ads of the dataset behind it (none when ads is 0) and its value. Sizes
// differ so that the page-count column of the Section 7 timing table
// varies by site the way the paper's does.
var world = []struct {
	seed int64
	ads  int
	site func(ds *Dataset) Site
}{
	{1, 400, newsday},
	{2, 350, nyTimes},
	{3, 300, newYorkDaily},
	{4, 250, carPoint},
	{5, 300, autoWeb},
	{6, 150, wwWheels},
	{7, 280, autoConnect},
	{8, 320, yahooCars},
	{0, 0, kellys},
	{0, 0, carAndDriver},
	{0, 0, carReviews},
	{0, 0, carFinance},
}

// BuildWorld assembles the whole simulated Web with its standard datasets.
// The result is deterministic across runs.
func BuildWorld() *World {
	w := &World{Server: web.NewServer(), Datasets: make(map[string]*Dataset)}
	for _, s := range world {
		var ds *Dataset
		if s.ads > 0 {
			ds = NewDataset(s.seed, s.ads)
		}
		site := s.site(ds)
		if ds != nil {
			w.Datasets[site.Host] = ds
		}
		w.Sites = append(w.Sites, site)
		w.Server.Register(site.Web())
	}
	return w
}

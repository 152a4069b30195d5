// Overhttp demonstrates that the webbase is indifferent to where the raw
// Web lives AND to where its callers live: the simulated sites are
// served over real HTTP sockets (net/http + virtual hosting on the Host
// header), the webbase navigates them through an HTTP client fetcher,
// and the answer is served back out over HTTP by the query service from
// internal/server — the same server cmd/webbased runs — as an
// incremental NDJSON stream. Real sockets on both sides of the layered
// architecture.
package main

import (
	"bufio"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"

	"webbase"
	"webbase/internal/server"
	"webbase/internal/web"
	"webbase/internal/wire"
)

func main() {
	world := webbase.NewSimulatedWorld()

	// Serve the whole simulated Web on one real socket. The empty host
	// makes the handler dispatch on the Host header, so all twelve
	// virtual hosts share the listener.
	rawWeb := httptest.NewServer(web.HTTPHandler(world.Server, "http", ""))
	defer rawWeb.Close()
	fmt.Println("simulated Web listening on", rawWeb.URL)

	// The fetcher rewrites virtual-host URLs to the real listener while
	// preserving the Host header through the URL host → request host
	// mapping. A custom transport sends every request to the test
	// listener but keeps the virtual host name.
	listener, err := url.Parse(rawWeb.URL)
	if err != nil {
		log.Fatal(err)
	}
	client := &http.Client{Transport: &hostRewriteTransport{target: listener.Host}}
	fetcher := &web.HTTPFetcher{Client: client}

	sys, err := webbase.New(webbase.Config{Fetcher: fetcher})
	if err != nil {
		log.Fatal(err)
	}

	// Serve the webbase itself over HTTP: the query service streams
	// answers as NDJSON, one event per maximal object.
	srv, err := server.New(server.Config{System: sys})
	if err != nil {
		log.Fatal(err)
	}
	service := httptest.NewServer(srv.Handler())
	defer service.Close()
	fmt.Println("query service listening on", service.URL)

	resp, err := http.Post(service.URL+"/query", "text/plain", strings.NewReader(
		"SELECT Make, Model, Year, Price WHERE Make = 'honda' AND Model = 'accord' ORDER BY Price LIMIT 5"))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()

	fmt.Println("\nFive cheapest honda accords, fetched over real HTTP, answered over real HTTP:")
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		ev, err := wire.Decode(sc.Bytes())
		if err != nil {
			log.Fatal(err)
		}
		switch ev.Kind {
		case wire.KindTuples:
			for _, t := range ev.Delivery.Tuples {
				fmt.Println(" ", t)
			}
		case wire.KindTrailer:
			fmt.Printf("\n%d pages fetched, %d deduped\n", ev.Trailer.Stats.Pages, ev.Trailer.Stats.Deduped)
		case wire.KindError:
			log.Fatalf("query failed: %s", sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
}

// hostRewriteTransport redirects every request to the test listener while
// keeping the original virtual host in the Host header.
type hostRewriteTransport struct {
	target string
}

func (t *hostRewriteTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	req = req.Clone(req.Context())
	req.Host = req.URL.Host // preserve the virtual host
	req.URL.Host = t.target // but connect to the real listener
	return http.DefaultTransport.RoundTrip(req)
}

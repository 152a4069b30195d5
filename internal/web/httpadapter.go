package web

import (
	"io"
	"net/http"
	"strings"
)

// HTTPHandler exposes a Fetcher (typically a *Server) as a net/http
// handler, so the simulated web can also be served over real sockets —
// useful for demos and for driving the webbase against a live server.
func HTTPHandler(f Fetcher, scheme, host string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := r.ParseForm(); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// Rebuild the in-process absolute URL: the Host header selects the
		// simulated site when host == "", enabling virtual hosting.
		h := host
		if h == "" {
			h = r.Host
		}
		var fields []Field
		for name, values := range r.PostForm {
			for _, v := range values {
				fields = append(fields, Field{Name: name, Value: v})
			}
		}
		target := scheme + "://" + h + r.URL.Path + querySuffix(r.URL.RawQuery)
		resp, err := f.Fetch(NewSubmit(r.Context(), target, r.Method, fields))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.WriteHeader(resp.Status)
		w.Write(resp.Body)
	})
}

func querySuffix(raw string) string {
	if raw == "" {
		return ""
	}
	return "?" + raw
}

// HTTPFetcher adapts an *http.Client to the Fetcher interface, allowing the
// navigation calculus to run against a real HTTP server (e.g. an httptest
// instance serving HTTPHandler).
type HTTPFetcher struct {
	Client *http.Client
	// Rewrite optionally maps simulated URLs to real ones (e.g. replacing
	// the virtual host with an httptest server address).
	Rewrite func(string) string
}

// Fetch implements Fetcher over real HTTP.
func (h *HTTPFetcher) Fetch(req *Request) (*Response, error) {
	client := h.Client
	if client == nil {
		client = http.DefaultClient
	}
	target := req.URL
	if h.Rewrite != nil {
		target = h.Rewrite(target)
	}
	var (
		resp *http.Response
		err  error
	)
	form := req.EncodedForm()
	if strings.EqualFold(req.Method, "POST") {
		resp, err = client.Post(target, "application/x-www-form-urlencoded", strings.NewReader(form))
	} else {
		u := target
		if form != "" {
			sep := "?"
			if strings.Contains(u, "?") {
				sep = "&"
			}
			u += sep + form
		}
		resp, err = client.Get(u)
	}
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &Response{Status: resp.StatusCode, URL: req.URL, Body: body}, nil
}

var _ Fetcher = (*HTTPFetcher)(nil)

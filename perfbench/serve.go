package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"gesmc/internal/cluster"
	"gesmc/internal/service"
	"gesmc/wire"
)

// daemon is one gesmcd equivalent: a Service behind service.NewHandler
// on a loopback listener.
type daemon struct {
	svc  *service.Service
	srv  *http.Server
	url  string
	done chan struct{}
}

func startDaemon(cfg service.Config) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	svc := service.New(cfg)
	d := &daemon{
		svc:  svc,
		srv:  &http.Server{Handler: service.NewHandler(svc)},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(d.done)
		d.srv.Serve(ln) // returns http.ErrServerClosed once close begins
	}()
	return d, nil
}

// close stops the server, waits for its serve loop, then drains the
// service and closes its pooled engines.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.srv.Shutdown(ctx)
	<-d.done
	d.svc.Shutdown(ctx)
}

// rig is an in-process coordinator in front of in-process daemons.
type rig struct {
	shards []*daemon
	coord  *cluster.Coordinator
}

// startRig boots n shard daemons with cfg and a coordinator over them.
func startRig(ctx context.Context, n int, cfg service.Config) (*rig, error) {
	rg := &rig{}
	for i := 0; i < n; i++ {
		c := cfg
		c.ID = fmt.Sprintf("shard-%d", i)
		d, err := startDaemon(c)
		if err != nil {
			rg.close()
			return nil, err
		}
		rg.shards = append(rg.shards, d)
	}
	coord, err := newCoordinator(ctx, rg.shards...)
	if err != nil {
		rg.close()
		return nil, err
	}
	rg.coord = coord
	return rg, nil
}

// newCoordinator puts a coordinator in its default configuration in
// front of the daemons and runs one health round.
func newCoordinator(ctx context.Context, shards ...*daemon) (*cluster.Coordinator, error) {
	var sc []cluster.ShardConfig
	for i, d := range shards {
		sc = append(sc, cluster.ShardConfig{ID: fmt.Sprintf("shard-%d", i), URL: d.url})
	}
	coord, err := cluster.New(cluster.Config{Shards: sc, ID: "coordinator"})
	if err != nil {
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	coord.CheckHealth(ctx)
	return coord, nil
}

func (rg *rig) close() {
	if rg.coord != nil {
		rg.coord.Close()
	}
	for _, d := range rg.shards {
		d.close()
	}
}

func (rg *rig) services() []*service.Service {
	var out []*service.Service
	for _, d := range rg.shards {
		out = append(out, d.svc)
	}
	return out
}

// newClient returns a client that keeps at most one connection per
// daemon, so a closed loop's load arrives through one loopback
// connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// open posts a sampling request and returns the response once its
// headers arrive; the daemon sends them with the first line. A status
// other than 200 is returned as an error carrying the wire.Error.
func open(ctx context.Context, c *http.Client, url string, req *wire.SampleRequest) (*http.Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/sample", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(hreq)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		var we wire.Error
		json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&we)
		return nil, fmt.Errorf("HTTP %d: %s (%s)", resp.StatusCode, we.Error, we.Code)
	}
	return resp, nil
}

// httpLines runs one request against a daemon and returns its lines,
// decoded with wire.DecodeLines, and the time its headers arrived.
func httpLines(ctx context.Context, c *http.Client, url string, req *wire.SampleRequest) ([]wire.Line, time.Time, error) {
	resp, err := open(ctx, c, url, req)
	if err != nil {
		return nil, time.Time{}, err
	}
	defer resp.Body.Close()
	headers := time.Now()
	var lines []wire.Line
	err = wire.DecodeLines(resp.Body, func(ln wire.Line) error {
		lines = append(lines, ln)
		return nil
	})
	return lines, headers, err
}

// coordLines runs one request through a coordinator.
func coordLines(ctx context.Context, coord *cluster.Coordinator, req *wire.SampleRequest) ([]wire.Line, error) {
	var lines []wire.Line
	err := coord.Sample(ctx, req, func(ln wire.Line) error {
		lines = append(lines, ln)
		return nil
	})
	return lines, err
}

// serviceLines runs one request through Service.Sample in process.
func serviceLines(ctx context.Context, svc *service.Service, wreq *wire.SampleRequest) ([]wire.Line, error) {
	req, err := service.FromWire(wreq)
	if err != nil {
		return nil, err
	}
	var lines []wire.Line
	err = svc.Sample(ctx, req, func(ln wire.Line) error {
		lines = append(lines, ln)
		return nil
	})
	return lines, err
}

package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"porcupine/internal/core"
	"porcupine/internal/serve"
	"porcupine/internal/wire"
)

// httpPhase is one timed closed-loop phase of serve-suite-http.
type httpPhase struct {
	phaseResult
	server   []float64 // X-Porcupine-Latency per request, ms
	overhead []float64 // round trip minus server latency, ms
	bodyKB   []float64
}

// runServeHTTP is one user at a time over the real serving path: the
// registry round trip, then RegistryFront on a loopback listener, with
// one keep-alive client posting pre-encoded bodies for all 11 kernels
// at PN8192.
func runServeHTTP(cfg config) (*report, error) {
	rep := newReport(cfg)
	defer rep.probe.close()
	var tr *tracer
	if cfg.Traced {
		tr = newTracer()
	}
	// One set-up: at ~30 s (mostly mux proofs) more would not fit the
	// run's time budget.
	cfg.setups = 1
	names := core.AllKernels()
	s, setups, err := setupServing(rep, cfg, names, "PN8192", tr)
	if err != nil {
		return nil, err
	}
	defer s.cat.Close()
	if err := checkRefused(rep); err != nil {
		return nil, err
	}
	frontStart := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: serve.NewRegistryFront(s.cat, "PN8192")}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	// The front is part of the (single) set-up.
	setups[0].raw += time.Since(frontStart).Seconds()
	setups[0].to = time.Now()
	rep.setTimes("setup_s", setups...)
	transport := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	client := &http.Client{Transport: transport}
	defer func() {
		transport.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx) // a failed drain changes no measurement
		<-served
	}()
	base := "http://" + ln.Addr().String() + "/run/"

	inputs, err := buildInputs(s.ctxOf, s.specs, cfg.Seed, true)
	if err != nil {
		return nil, err
	}

	res := httpLoad(cfg, client, base, names, inputs, nil)
	rep.Attempted += res.attempted
	if res.failed > 0 {
		rep.fail(res.failed, "HTTP round trips failed")
	}
	rep.recordPhase(res.phaseResult, names)
	rs := res.rs
	if cfg.Traced {
		traced := httpLoad(cfg, client, base, names, inputs, tr)
		rep.Attempted += traced.attempted
		if traced.failed > 0 {
			rep.fail(traced.failed, "HTTP round trips failed (traced phase)")
		}
		rs = append(rs, traced.rs...)
		rep.tracingOverhead(traced.phaseResult)
		rep.Layers["http.overhead_ms"] = median(traced.overhead)
		rep.Layers["wire.request_kb"] = mean(traced.bodyKB)
		st := s.cat.Sched.Stats()
		rep.Layers["serve.wait_p50_ms"] = ms(st.AvgWait)
		rep.Layers["serve.wait_p99_ms"] = ms(st.AvgWait)
		rep.Layers["serve.exec_ms"] = ms(st.AvgLatency - st.AvgWait)
		rep.Layers["serve.avg_batch"] = st.AvgBatch
		rep.Layers["serve.max_queue_depth"] = float64(st.MaxQueueDepth)
		if st.Served > 0 {
			rep.Layers["serve.mux_share"] = float64(st.MuxedRequests) / float64(st.Served)
		}
		decMS, encMS, err := wireCodecMS(s, inputs)
		if err != nil {
			return nil, err
		}
		rep.Layers["wire.decode_request_ms"] = decMS
		rep.Layers["wire.encode_response_ms"] = encMS
		rep.Reconcile["http_round_trip"] = map[string]float64{
			"round_trip_mean_ms":      mean(traced.all()),
			"server_latency_mean_ms":  mean(traced.server),
			"http_overhead_mean_ms":   mean(traced.overhead),
			"wire_codec_ms":           decMS + encMS,
			"http_rest_ms":            mean(traced.overhead) - decMS - encMS,
			"min_overhead_ms":         minOf(traced.overhead),
			"scheduler_avg_batch":     st.AvgBatch,
			"scheduler_avg_wait_ms":   ms(st.AvgWait),
			"server_share_of_latency": mean(traced.server) / mean(traced.all()),
		}
		if err := attributeServe(rep, s, inputs); err != nil {
			return nil, err
		}
		rep.Spans = tr.snapshot()
	}
	if err := finishServe(rep, s, inputs, rs); err != nil {
		return nil, err
	}
	return rep, nil
}

// httpLoad posts requests one at a time, in seeded rounds over the
// kernels, for one phase.
func httpLoad(cfg config, client *http.Client, base string, names []string, inputs [][]input, tr *tracer) *httpPhase {
	res := &httpPhase{phaseResult: phaseResult{lat: make([][]float64, len(names))}}
	rs := newReservoir(cfg.Seed, b2i(tr != nil), len(names), samplesPer)
	res.rs = []*reservoir{rs}
	// One untimed round trip per kernel first, to warm the connection
	// and the serving sessions.
	for k, n := range names {
		if _, _, err := post(client, base+n, inputs[k][0].body); err != nil {
			res.attempted++
			res.failed++
		}
	}
	next := roundsSequence(cfg.Seed, len(names))
	start := time.Now()
	res.start = start
	for req := int64(0); time.Since(start) < cfg.phase(); req++ {
		r := next()
		body := inputs[r.Kernel][r.Example].body
		id, t0 := tr.begin("http.round_trip."+names[r.Kernel], 0, req)
		out, server, err := post(client, base+names[r.Kernel], body)
		d := tr.end(id, t0)
		res.attempted++
		if err != nil {
			res.failed++
			continue
		}
		res.lat[r.Kernel] = append(res.lat[r.Kernel], ms(d))
		res.server = append(res.server, ms(server))
		res.overhead = append(res.overhead, ms(d-server))
		res.bodyKB = append(res.bodyKB, float64(len(body))/1024)
		rs.offer(r, func() kept { return kept{req: r, body: out} })
	}
	res.wall = time.Since(start)
	return res
}

// post sends one request and returns the response body and the
// server's reported latency.
func post(client *http.Client, url string, body []byte) ([]byte, time.Duration, error) {
	resp, err := client.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("%s: %s: %s", url, resp.Status, bytes.TrimSpace(out))
	}
	server, err := time.ParseDuration(resp.Header.Get("X-Porcupine-Latency"))
	if err != nil {
		return nil, 0, errors.New("response carries no X-Porcupine-Latency")
	}
	return out, server, nil
}

// wireCodecMS times the server's wire work in isolation: decoding each
// kernel's request body and encoding a response ciphertext, as means
// over kernels of per-kernel medians.
func wireCodecMS(s *served, inputs [][]input) (decMS, encMS float64, err error) {
	params := s.cat.Ctx.Params
	var decs, encs []float64
	for k := range inputs {
		in := inputs[k][0]
		decs = append(decs, ms(repeatMedian(9, func() {
			if _, e := wire.DecodeRequest(params, in.body); e != nil {
				err = e
			}
		})))
		out := in.req.CtIn[0]
		encs = append(encs, ms(repeatMedian(9, func() {
			if _, e := wire.EncodeResponse(params, out); e != nil {
				err = e
			}
		})))
	}
	return mean(decs), mean(encs), err
}

package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/simdb"
)

// TestDetectRequestShapes pins that a request naming its tables and a
// whole-database request share one detect path, in both execution modes:
//
//	(a) transient connect faults are retried, and never surface as 5xx;
//	(b) a deadline expiring mid-batch answers every table — reached ones
//	    normally, unreached ones as skipped with a reason — under exactly
//	    one summary error;
//	(c) named tables are answered byte-identically to the same tables in a
//	    whole-database response.
func TestDetectRequestShapes(t *testing.T) {
	svc, ds := testService(t)
	h := svc.Handler()
	var testNames, trainNames []string
	for _, tb := range ds.Test {
		testNames = append(testNames, tb.Name)
	}
	for _, tb := range ds.Train {
		trainNames = append(trainNames, tb.Name)
	}
	detect := func(t *testing.T, req DetectRequest) (int, DetectResponse) {
		t.Helper()
		rec := doJSON(t, h, http.MethodPost, "/v1/detect", req)
		var resp DetectResponse
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
		}
		return rec.Code, resp
	}

	for _, named := range []bool{false, true} {
		for _, pipelined := range []bool{false, true} {
			name := fmt.Sprintf("named=%v/pipelined=%v", named, pipelined)
			t.Run(name, func(t *testing.T) {
				tenant := strings.NewReplacer("=", "_", "/", "_").Replace(name)

				// (a) Connect faults: a fresh seeded fault stream per case.
				flaky := simdb.NewServer(simdb.NoLatency)
				flaky.LoadTables(tenant+"_flaky", ds.Test)
				flaky.SetFaultProfile(simdb.FaultProfile{Seed: 3, ConnectFailProb: 0.5})
				svc.RegisterTenant(tenant+"_flaky", flaky)
				for i := 0; i < 20; i++ {
					req := DetectRequest{Database: tenant + "_flaky", Pipelined: pipelined}
					if named {
						req.Tables = []string{testNames[i%len(testNames)]}
					}
					code, resp := detect(t, req)
					if code != http.StatusOK {
						t.Fatalf("(a) request %d under connect faults: status %d", i, code)
					}
					// Either the batch ran, or the connect retries ran out
					// and the answer says so.
					if ran := len(resp.Tables) > 0 && len(resp.Errors) == 0; !ran && !(resp.Degraded && len(resp.Errors) == 1) {
						t.Fatalf("(a) request %d: %d tables, errors %v, degraded %v", i, len(resp.Tables), resp.Errors, resp.Degraded)
					}
				}

				// (b) A deadline expiring mid-batch on a paper-latency tenant.
				slow := simdb.NewServer(simdb.PaperLatency(1))
				slow.LoadTables(tenant+"_slow", ds.Train)
				svc.RegisterTenant(tenant+"_slow", slow)
				req := DetectRequest{Database: tenant + "_slow", Pipelined: pipelined, DeadlineMillis: 40}
				if named {
					req.Tables = trainNames
				}
				code, resp := detect(t, req)
				if code != http.StatusOK {
					t.Fatalf("(b) status %d", code)
				}
				answered, skipped := 0, 0
				for _, tb := range resp.Tables {
					if !tb.Skipped {
						answered++
						continue
					}
					skipped++
					if tb.SkipReason == "" || len(tb.Columns) != 0 {
						t.Fatalf("(b) skipped table %s: reason %q, %d columns", tb.Table, tb.SkipReason, len(tb.Columns))
					}
				}
				if answered+skipped != len(trainNames) {
					t.Fatalf("(b) %d answered + %d skipped != %d tables; errors %v", answered, skipped, len(trainNames), resp.Errors)
				}
				t.Logf("(b) %d answered, %d skipped", answered, skipped)
				if skipped == 0 || len(resp.Errors) != 1 || !resp.Degraded {
					t.Fatalf("(b) %d skipped, errors %v, degraded %v: want skipped tables under one summary error",
						skipped, resp.Errors, resp.Degraded)
				}

				// (c) Named answers equal the whole-database answers.
				if !named {
					return
				}
				_, whole := detect(t, DetectRequest{Database: "tenantdb", Pipelined: pipelined})
				ref := map[string]string{}
				for _, tb := range whole.Tables {
					b, _ := json.Marshal(tb)
					ref[tb.Table] = string(b)
				}
				picked := []string{testNames[len(testNames)-1], testNames[0]}
				_, resp = detect(t, DetectRequest{Database: "tenantdb", Pipelined: pipelined, Tables: picked})
				if len(resp.Tables) != len(picked) || len(resp.Errors) != 0 {
					t.Fatalf("(c) %d tables, errors %v", len(resp.Tables), resp.Errors)
				}
				for i, tb := range resp.Tables {
					b, _ := json.Marshal(tb)
					if tb.Table != picked[i] || string(b) != ref[tb.Table] {
						t.Fatalf("(c) table %d: got %s\nwant %s", i, b, ref[picked[i]])
					}
				}
			})
		}
	}
}

package twin

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
)

// TestServerConcurrentClients runs seven clients at once against one
// server, each issuing a fixed number of requests of one kind: run,
// status, list, query, events, snapshot→restore→delete and
// create→run→delete. Every response must carry its expected status, and
// afterwards every queued tick must have run and only the shared twin may
// remain. Under `make race` this is the check on the service's locks:
// the twin's fleet and run-queue locks, the registry lock and the fleet's
// event-queue lock all guard state that these clients touch from
// different goroutines.
func TestServerConcurrentClients(t *testing.T) {
	srv := NewServer()
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	const (
		warmTicks = 128
		runTicks  = 16
		ops       = 8 // requests per client
	)
	var created createResponse
	httpJSON(t, client, http.MethodPost, ts.URL+"/twins",
		Config{Buildings: 2, Shards: 1, Seed: 7, EpochTicks: 64}, http.StatusCreated, &created)
	id := created.ID
	twinURL := ts.URL + "/twins/" + id
	httpJSON(t, client, http.MethodPost, twinURL+"/run", map[string]uint64{"ticks": warmTicks}, http.StatusAccepted, nil)
	waitIdleHTTP(t, client, ts.URL, id, warmTicks)
	var series struct {
		Series []string `json:"series"`
	}
	httpJSON(t, client, http.MethodGet, twinURL+"/series?building=1", nil, http.StatusOK, &series)
	if len(series.Series) == 0 {
		t.Fatal("shared twin recorded no series")
	}
	name := series.Series[0]

	// do sends one request and checks its status; it reports instead of
	// failing the test because it runs on the clients' goroutines.
	do := func(method, url string, body []byte, want int) ([]byte, error) {
		req, err := http.NewRequest(method, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", method, url, err)
		}
		if resp.StatusCode != want {
			return nil, fmt.Errorf("%s %s: status %d (want %d): %s", method, url, resp.StatusCode, want, raw)
		}
		return raw, nil
	}
	newID := func(raw []byte) (string, error) {
		var cr createResponse
		err := json.Unmarshal(raw, &cr)
		return cr.ID, err
	}
	events := []string{
		`{"kind":"door","building":1,"door_s":30}`,
		`{"kind":"climate","t_c":31,"dew_c":26}`,
		`{"kind":"fault","building":0,"faults":[{"kind":"jam","at_s":0,"for_s":30}]}`,
	}

	clients := map[string]func(i int) error{
		"run": func(int) error {
			_, err := do(http.MethodPost, twinURL+"/run", []byte(fmt.Sprintf(`{"ticks":%d}`, runTicks)), http.StatusAccepted)
			return err
		},
		"status": func(int) error {
			_, err := do(http.MethodGet, twinURL, nil, http.StatusOK)
			return err
		},
		"list": func(int) error {
			_, err := do(http.MethodGet, ts.URL+"/twins", nil, http.StatusOK)
			return err
		},
		"query": func(i int) error {
			q := "/query?building=1&series=" + name + "&from_s=0&to_s=120&step_s=30&agg=mean"
			if i%2 == 1 {
				q += "&format=csv"
			}
			_, err := do(http.MethodGet, twinURL+q, nil, http.StatusOK)
			return err
		},
		"events": func(i int) error {
			_, err := do(http.MethodPost, twinURL+"/events", []byte(events[i%len(events)]), http.StatusAccepted)
			return err
		},
		"snapshot-restore": func(int) error {
			snap, err := do(http.MethodGet, twinURL+"/snapshot", nil, http.StatusOK)
			if err != nil {
				return err
			}
			raw, err := do(http.MethodPost, ts.URL+"/twins/restore", snap, http.StatusCreated)
			if err != nil {
				return err
			}
			rid, err := newID(raw)
			if err != nil {
				return err
			}
			_, err = do(http.MethodDelete, ts.URL+"/twins/"+rid, nil, http.StatusNoContent)
			return err
		},
		"create-run-delete": func(int) error {
			raw, err := do(http.MethodPost, ts.URL+"/twins", []byte(`{"buildings":1,"shards":1,"epoch_ticks":64}`), http.StatusCreated)
			if err != nil {
				return err
			}
			cid, err := newID(raw)
			if err != nil {
				return err
			}
			if _, err := do(http.MethodPost, ts.URL+"/twins/"+cid+"/run", []byte(`{"ticks":64}`), http.StatusAccepted); err != nil {
				return err
			}
			_, err = do(http.MethodDelete, ts.URL+"/twins/"+cid, nil, http.StatusNoContent)
			return err
		},
	}

	var wg sync.WaitGroup
	for kind, op := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ops {
				if err := op(i); err != nil {
					t.Errorf("%s client, request %d: %v", kind, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	waitIdleHTTP(t, client, ts.URL, id, warmTicks+ops*runTicks)
	var list map[string][]string
	httpJSON(t, client, http.MethodGet, ts.URL+"/twins", nil, http.StatusOK, &list)
	if !slices.Equal(list["twins"], []string{id}) {
		t.Fatalf("registry after the clients = %v, want only the shared twin %s", list["twins"], id)
	}
}

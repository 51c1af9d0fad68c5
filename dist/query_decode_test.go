package dist

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"privmdr"
	"privmdr/internal/httpapi"
)

// TestQueryBodyStatusParity posts the same /query bodies, well-formed and
// malformed, to a single-node QueryServer and to a replica serving the same
// state, and expects the same status from both: both decode through
// QueryRequest.UnmarshalJSON under the same body cap.
func TestQueryBodyStatusParity(t *testing.T) {
	p := privmdr.Params{N: 400, D: 3, C: 16, Eps: 1.0, Seed: 210}
	proto, err := privmdr.ProtocolByName("HDG", p)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := privmdr.NewLiveQueryServer(proto, privmdr.LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = qs.Close() })
	if err := qs.SubmitBatch(clientReports(t, proto, distDataset(t, p.N))); err != nil {
		t.Fatal(err)
	}
	st, err := qs.State()
	if err != nil {
		t.Fatal(err)
	}
	topo := &Topology{Tenants: []TenantConfig{{Name: "census", Mechanism: "HDG", Params: p}}}
	rep, err := NewReplica(topo, ReplicaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Install("census", st, 1); err != nil {
		t.Fatal(err)
	}
	single := httptest.NewServer(qs)
	t.Cleanup(single.Close)
	replica := httptest.NewServer(rep)
	t.Cleanup(replica.Close)

	const valid = `{"queries":[[{"attr":0,"lo":1,"hi":9},{"attr":2,"lo":3,"hi":14}],[{"attr":1,"lo":0,"hi":15}]]}`
	// overCap streams a valid batch followed by whitespace past the 64 MiB
	// body cap both roles share, without holding the body in memory.
	overCap := func() io.Reader {
		return io.MultiReader(strings.NewReader(valid), io.LimitReader(spaces{}, httpapi.MaxBody))
	}
	cases := []struct {
		name string
		body func() io.Reader
		want int
	}{
		{"canonical", text(valid), http.StatusOK},
		{"indented", text("{\n\t\"queries\": [\n\t\t[ {\"attr\": 0, \"lo\": 1, \"hi\": 9} ]\n\t]\n}\n"), http.StatusOK},
		{"key case", text(`{"Queries":[[{"ATTR":0,"Lo":1,"hI":9}]]}`), http.StatusOK},
		{"empty body", text(``), http.StatusBadRequest},
		{"empty object", text(`{}`), http.StatusBadRequest},
		{"empty batch", text(`{"queries":[]}`), http.StatusBadRequest},
		{"null batch", text(`{"queries":null}`), http.StatusBadRequest},
		{"null", text(`null`), http.StatusBadRequest},
		{"array", text(`[]`), http.StatusBadRequest},
		{"empty query", text(`{"queries":[[]]}`), http.StatusBadRequest},
		{"trailing bytes", text(valid + `x`), http.StatusBadRequest},
		{"second object", text(valid + valid), http.StatusBadRequest},
		{"truncated", text(valid[:len(valid)-2]), http.StatusBadRequest},
		{"float", text(`{"queries":[[{"attr":0,"lo":1.5,"hi":9}]]}`), http.StatusBadRequest},
		{"leading zero", text(`{"queries":[[{"attr":0,"lo":01,"hi":9}]]}`), http.StatusBadRequest},
		{"20-digit integer", text(`{"queries":[[{"attr":0,"lo":12345678901234567890,"hi":9}]]}`), http.StatusBadRequest},
		{"string value", text(`{"queries":[[{"attr":"0","lo":1,"hi":9}]]}`), http.StatusBadRequest},
		{"attribute out of range", text(`{"queries":[[{"attr":3,"lo":1,"hi":9}]]}`), http.StatusBadRequest},
		{"interval out of domain", text(`{"queries":[[{"attr":0,"lo":1,"hi":16}]]}`), http.StatusBadRequest},
		{"repeated attribute", text(`{"queries":[[{"attr":0,"lo":1,"hi":9},{"attr":0,"lo":2,"hi":3}]]}`), http.StatusBadRequest},
		{"over the cap", overCap, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, url := range []string{single.URL + "/query", replica.URL + "/v1/census/query"} {
				resp, err := http.Post(url, "application/json", tc.body())
				if err != nil {
					t.Fatal(err)
				}
				msg, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != tc.want {
					t.Errorf("%s: %d %s, want %d", url, resp.StatusCode, msg, tc.want)
				}
			}
		})
	}
}

// TestReplicaQueryBeforeInstall pins that a replica with no installed
// epoch answers every /query with 503, whatever the body: the body is only
// decoded by the installed epoch's QueryServer.
func TestReplicaQueryBeforeInstall(t *testing.T) {
	p := privmdr.Params{N: 400, D: 3, C: 16, Eps: 1.0, Seed: 210}
	topo := &Topology{Tenants: []TenantConfig{{Name: "census", Mechanism: "HDG", Params: p}}}
	rep, err := NewReplica(topo, ReplicaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	replica := httptest.NewServer(rep)
	t.Cleanup(replica.Close)
	for _, body := range []string{`{"queries":[[{"attr":0,"lo":1,"hi":9}]]}`, `{"queries":[`} {
		if code, msg := postBytes(t, replica.URL+"/v1/census/query", "application/json", []byte(body)); code != http.StatusServiceUnavailable {
			t.Errorf("%s before the first install: %d %s, want 503", body, code, msg)
		}
	}
}

func text(s string) func() io.Reader {
	return func() io.Reader { return strings.NewReader(s) }
}

// spaces is an endless source of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

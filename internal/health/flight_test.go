package health

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"nulpa/internal/telemetry"
)

func TestFlightCaptureRoundTrip(t *testing.T) {
	m := New(Config{Detector: "nulpa", Vertices: 1000})
	defer m.Close()
	for i, d := range []int64{400, 200, 100, 50} {
		m.ObserveIteration(telemetry.IterRecord{
			Iter: i, DeltaN: d, Moves: d, EdgeVisits: 10 * d, ActiveVertices: d,
			Duration: 3 * time.Millisecond, Threshold: 2,
		})
	}
	m.RecordEvent("fault", "injected: kernel launch rejected")

	b := m.Flight("fault")
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.Reason != "fault" || b.Detector != "nulpa" || b.Vertices != 1000 {
		t.Fatalf("bundle metadata: %+v", b)
	}
	if b.Iterations != 4 || len(b.Frames) != 4 {
		t.Fatalf("bundle frames: %d/%d", len(b.Frames), b.Iterations)
	}
	if len(b.Metrics) == 0 {
		t.Fatal("bundle has no metrics snapshot")
	}
	found := false
	for _, e := range b.Events {
		if e.Name == "fault" {
			found = true
		}
	}
	if !found {
		t.Fatalf("recorded event missing from bundle: %+v", b.Events)
	}

	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := DecodeFlight(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Validate(); err != nil {
		t.Fatal(err)
	}
	// Compare re-encoded bytes: time.Time carries a monotonic component
	// that JSON drops, so struct equality would spuriously differ.
	data2, err := json.Marshal(rt)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatal("bundle did not survive the round trip")
	}
}

func TestFlightDecodeRejectsUnknownFields(t *testing.T) {
	if _, err := DecodeFlight([]byte(`{"schema":1,"reason":"fault","state":"healthy","bogus":true}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestFlightValidateRejects(t *testing.T) {
	now := time.Now()
	cases := map[string]*FlightBundle{
		"nil":            nil,
		"wrong schema":   {Schema: 99, Reason: "fault", State: StateHealthy},
		"no reason":      {Schema: FlightSchema, State: StateHealthy},
		"no state":       {Schema: FlightSchema, Reason: "fault"},
		"frame count":    {Schema: FlightSchema, Reason: "fault", State: StateHealthy, Frames: []Frame{{State: StateHealthy}}},
		"unordered time": {Schema: FlightSchema, Reason: "fault", State: StateHealthy, Iterations: 2, Frames: []Frame{{Time: now, State: StateHealthy}, {IterRecord: telemetry.IterRecord{Iter: 1}, Time: now.Add(-time.Second), State: StateHealthy}}},
		"frame no state": {Schema: FlightSchema, Reason: "fault", State: StateHealthy, Iterations: 1, Frames: []Frame{{Time: now}}},
	}
	for name, b := range cases {
		if err := b.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
}

// TestFlightSchemaGolden pins the bundle layout: renaming or dropping a JSON
// field fails here. Additions require updating the golden deliberately.
func TestFlightSchemaGolden(t *testing.T) {
	got, err := json.MarshalIndent(schema(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "flight_schema.golden.json")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (the golden is schema() as indented JSON)", err)
	}
	var g, w schemaDescriptor
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatalf("golden unreadable: %v", err)
	}
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("flight schema drifted from golden:\n got: %s\nwant: %s\nif intentional, write the got block to %s", got, want, path)
	}
}

// TestFlightDuringRun exercises capture on a live monitor (the explicit
// /jobs/{id}/flight path): frames recorded so far appear, reason "request".
func TestFlightDuringRun(t *testing.T) {
	m := New(Config{Vertices: 500})
	defer m.Close()
	m.ObserveIteration(telemetry.IterRecord{Iter: 0, DeltaN: 100, Duration: time.Millisecond})
	b := m.Flight("request")
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.Reason != "request" || len(b.Frames) != 1 {
		t.Fatalf("live capture: %+v", b)
	}
}

// schemaDescriptor is the machine-checkable statement of the bundle layout:
// JSON field names per object, derived from struct tags so the descriptor
// cannot drift from the encoder. Frame lists the embedded iteration record's
// keys beside its own; Quality is the frame's nested "quality" object.
// TestFlightSchemaGolden compares it against
// testdata/flight_schema.golden.json.
type schemaDescriptor struct {
	Schema  int      `json:"schema"`
	Bundle  []string `json:"bundle"`
	Frame   []string `json:"frame"`
	Event   []string `json:"event"`
	Quality []string `json:"quality"`
}

// schema returns this build's flight-bundle schema descriptor.
func schema() schemaDescriptor {
	return schemaDescriptor{
		Schema:  FlightSchema,
		Bundle:  jsonFields(reflect.TypeOf(FlightBundle{})),
		Frame:   jsonFields(reflect.TypeOf(Frame{})),
		Event:   jsonFields(reflect.TypeOf(Event{})),
		Quality: jsonFields(reflect.TypeOf(telemetry.QualityRecord{})),
	}
}

// jsonFields lists t's JSON keys, recursing into untagged embedded structs
// the way encoding/json promotes their fields.
func jsonFields(t reflect.Type) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		switch {
		case f.Anonymous && name == "":
			out = append(out, jsonFields(f.Type)...)
		case name != "" && name != "-":
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

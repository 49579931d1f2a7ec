package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"testing"

	"ipex/internal/fault"
	"ipex/internal/harness"
	"ipex/internal/nvp"
	"ipex/internal/power"
	"ipex/internal/prefetch"
)

// nonIdentityConfigFields lists every nvp.Config field tagged json:"-" —
// deliberately OUTSIDE the content identity — with the reason. Every other
// field is marshalled into the cell key; TestConfigIdentityExhaustive holds
// the tags to exactly this list, so a new Config field cannot silently drop
// out of the key (which would let stale journal and cache entries match
// fresh requests).
var nonIdentityConfigFields = map[string]string{
	"Tracer":             "observer: a traced re-run replays the same result",
	"Metrics":            "observer: counters never alter simulated behaviour",
	"DisableFastPaths":   "loop selection is bit-identical by contract (golden-pinned)",
	"IPrefetcherFactory": "a func has no identity: NewCellIdentity panics on a config carrying one",
	"DPrefetcherFactory": "a func has no identity: NewCellIdentity panics on a config carrying one",
}

// TestConfigIdentityExhaustive pins the identity schema against the config
// schema from both directions: every nvp.Config field tagged json:"-" (and
// so outside the key) is excluded above with a reason, and every listed
// exclusion is a live field tagged json:"-". An exclusion without a reason
// would let a result-affecting field escape the key.
func TestConfigIdentityExhaustive(t *testing.T) {
	cfgT := reflect.TypeOf(nvp.Config{})
	excluded := make(map[string]bool)
	for i := 0; i < cfgT.NumField(); i++ {
		f := cfgT.Field(i)
		if f.Tag.Get("json") != "-" {
			continue
		}
		excluded[f.Name] = true
		if nonIdentityConfigFields[f.Name] == "" {
			t.Errorf("nvp.Config.%s is tagged json:\"-\" without a reason in nonIdentityConfigFields: a result-affecting field outside the key lets stale cache/journal entries match fresh requests", f.Name)
		}
	}
	for name := range nonIdentityConfigFields {
		if !excluded[name] {
			t.Errorf("nvp.Config.%s is listed as excluded but is not tagged json:\"-\" (or no longer exists)", name)
		}
	}
}

// TestConfigIdentitySameTypes verifies the identity carries the config as
// it is: CellIdentity.Config has exactly the type nvp.Config, so no
// narrowing copy can alias two distinct configurations onto one key, and
// no key field carries a json tag other than "-". A rename or an omitempty
// would change the key bytes of every stored result (TestCellKeysPinned
// catches that in nested types too).
func TestConfigIdentitySameTypes(t *testing.T) {
	cfgT := reflect.TypeOf(nvp.Config{})
	idF, ok := reflect.TypeOf(CellIdentity{}).FieldByName("Config")
	if !ok {
		t.Fatal("CellIdentity has no Config field")
	}
	if idF.Type != cfgT {
		t.Errorf("CellIdentity.Config has type %v, want %v", idF.Type, cfgT)
	}
	for i := 0; i < cfgT.NumField(); i++ {
		f := cfgT.Field(i)
		if tag, tagged := f.Tag.Lookup("json"); tagged && tag != "-" {
			t.Errorf("nvp.Config.%s has json tag %q: renaming or omitting a key field changes every cell key", f.Name, tag)
		}
	}
}

// TestFactoryConfigHasNoIdentity pins the key-soundness invariant for
// prefetcher factories: a func has no stable identity, so a config carrying
// one must not get a key at all. Keying it by mere presence would let two
// different factories replay each other's results; NewCellIdentity panics
// instead, for either side.
func TestFactoryConfigHasNoIdentity(t *testing.T) {
	factory := func() prefetch.Prefetcher { return prefetch.NewStride(16) }
	inst, data := nvp.DefaultConfig(), nvp.DefaultConfig()
	inst.IPrefetcherFactory = factory
	data.DPrefetcherFactory = factory
	tr := Trace(power.RFHome, 1)
	for side, cfg := range map[string]nvp.Config{"instruction": inst, "data": data} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s factory: NewCellIdentity returned an identity", side)
				}
			}()
			NewCellIdentity("fft", 0.1, tr, 1, cfg)
		}()
	}
}

// fillNonZero sets every settable leaf under v to a distinct non-zero value:
// pointers are allocated, slices get two elements; fields tagged json:"-"
// are outside the identity and left zero. A field it cannot set
// (unexported) fails the test, so nothing in the identity escapes the
// round trip below.
func fillNonZero(t *testing.T, v reflect.Value, path string, n *int) {
	t.Helper()
	*n++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if f.Tag.Get("json") == "-" {
				continue
			}
			if !v.Field(i).CanSet() {
				t.Fatalf("%s.%s is unexported: the wire format cannot carry it", path, f.Name)
			}
			fillNonZero(t, v.Field(i), path+"."+f.Name, n)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillNonZero(t, v.Elem(), path, n)
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < s.Len(); i++ {
			fillNonZero(t, s.Index(i), path+"[]", n)
		}
		v.Set(s)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString("v" + strconv.Itoa(*n))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*n) + 0.25)
	default:
		t.Fatalf("%s: no non-zero filler for kind %s", path, v.Kind())
	}
}

// TestConfigIdentityRoundTrip pins the property the /v1/run decoder rests
// on: a config's JSON carries its whole identity. Every identity field,
// nested ones included, is set to a distinct non-zero value and strictly
// decoded back over a zero config, so a field the JSON cannot carry comes
// back zero (or fails the decode) and fails the comparison.
func TestConfigIdentityRoundTrip(t *testing.T) {
	var cfg nvp.Config
	n := 0
	fillNonZero(t, reflect.ValueOf(&cfg).Elem(), "nvp.Config", &n)

	b, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var back nvp.Config
	if err := dec.Decode(&back); err != nil {
		t.Fatalf("strict decode of the config's own JSON: %v", err)
	}
	if !reflect.DeepEqual(back, cfg) {
		t.Fatalf("config → JSON → config changed it:\n got %+v\nwant %+v", back, cfg)
	}
	if harness.Key(back) != harness.Key(cfg) {
		t.Fatal("round-tripped config hashes to a different key")
	}
}

// TestCellKeysPinned pins the key schema byte for byte: the journal, the
// ipexd disk tier and every server of a mixed-version fleet file results
// under these keys, so a change that alters them (a renamed, retyped,
// reordered or omitempty-tagged config field) orphans every stored result.
// Only a deliberate schema change, such as a new config field, updates the
// expected keys, and says so: old journals and caches then miss.
func TestCellKeysPinned(t *testing.T) {
	tr := Trace(power.RFHome, 1)
	tuned := nvp.DefaultConfig().WithIPEX()
	tuned.Faults = &fault.Config{}
	tuned.Paranoid = true
	tuned.MaxCycles = 12345
	for _, tc := range []struct {
		name string
		cfg  nvp.Config
		want string
	}{
		{"default", nvp.DefaultConfig(), "23f4055edc82c9dbea7db9871e061fb4"},
		{"ipex-faults-paranoid-budget", tuned, "921515f1f1aaaa77265d08c01ef0197b"},
	} {
		if got := NewCellIdentity("fft", 0.1, tr, 1, tc.cfg).Key(); got != tc.want {
			t.Errorf("%s: key = %s, want %s", tc.name, got, tc.want)
		}
	}
}

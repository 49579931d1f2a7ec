package experiments

import (
	"reflect"
	"strconv"
	"testing"

	"ipex/internal/harness"
	"ipex/internal/nvp"
	"ipex/internal/prefetch"
)

// nonIdentityConfigFields lists every nvp.Config field that is deliberately
// OUTSIDE the content identity, with the reason. Everything else must map
// into ConfigIdentity — TestConfigIdentityExhaustive enforces it, so a new
// Config field cannot silently drop out of the cell key (which would let
// stale journal and cache entries match fresh requests).
var nonIdentityConfigFields = map[string]string{
	"Tracer":             "observer: a traced re-run replays the same result",
	"Metrics":            "observer: counters never alter simulated behaviour",
	"DisableFastPaths":   "loop selection is bit-identical by contract (golden-pinned)",
	"IPrefetcherFactory": "a func has no identity: NewConfigIdentity panics on a config carrying one",
	"DPrefetcherFactory": "a func has no identity: NewConfigIdentity panics on a config carrying one",
}

// TestConfigIdentityExhaustive pins the identity schema against the config
// schema from both directions: every nvp.Config field is either carried by
// ConfigIdentity or explicitly excluded above, and every ConfigIdentity
// field corresponds to a live Config field (no dead key material).
func TestConfigIdentityExhaustive(t *testing.T) {
	cfgT := reflect.TypeOf(nvp.Config{})
	idT := reflect.TypeOf(ConfigIdentity{})

	idFields := make(map[string]bool, idT.NumField())
	for i := 0; i < idT.NumField(); i++ {
		idFields[idT.Field(i).Name] = true
	}

	covered := make(map[string]bool, idT.NumField())
	for i := 0; i < cfgT.NumField(); i++ {
		name := cfgT.Field(i).Name
		if idFields[name] {
			if nonIdentityConfigFields[name] != "" {
				t.Errorf("nvp.Config.%s is both in ConfigIdentity and in the exclusion list; pick one", name)
			}
			covered[name] = true
			continue
		}
		if nonIdentityConfigFields[name] == "" {
			t.Errorf("nvp.Config.%s is neither carried by ConfigIdentity nor excluded with a reason: a result-affecting field outside the key lets stale cache/journal entries match fresh requests", name)
		}
	}
	for name := range idFields {
		if !covered[name] {
			t.Errorf("ConfigIdentity.%s matches no nvp.Config field: dead key material (renamed or removed Config field?)", name)
		}
	}
}

// TestConfigIdentitySameTypes verifies identity fields carry the exact
// type of the config field they mirror, so no narrowing conversion can
// alias two distinct configurations onto one key.
func TestConfigIdentitySameTypes(t *testing.T) {
	cfgT := reflect.TypeOf(nvp.Config{})
	idT := reflect.TypeOf(ConfigIdentity{})
	for i := 0; i < idT.NumField(); i++ {
		f := idT.Field(i)
		cf, ok := cfgT.FieldByName(f.Name)
		if !ok {
			continue // reported by TestConfigIdentityExhaustive
		}
		if cf.Type != f.Type {
			t.Errorf("ConfigIdentity.%s has type %v, nvp.Config.%s has %v", f.Name, f.Type, cf.Name, cf.Type)
		}
	}
}

// TestFactoryConfigHasNoIdentity pins the key-soundness invariant for
// prefetcher factories: a func has no stable identity, so a config carrying
// one must not get a key at all. Keying it by mere presence would let two
// different factories replay each other's results; NewConfigIdentity
// panics instead, for either side.
func TestFactoryConfigHasNoIdentity(t *testing.T) {
	factory := func() prefetch.Prefetcher { return prefetch.NewStride(16) }
	inst, data := nvp.DefaultConfig(), nvp.DefaultConfig()
	inst.IPrefetcherFactory = factory
	data.DPrefetcherFactory = factory
	for side, cfg := range map[string]nvp.Config{"instruction": inst, "data": data} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s factory: NewConfigIdentity returned an identity", side)
				}
			}()
			NewConfigIdentity(cfg)
		}()
	}
}

// fillNonZero sets every settable leaf under v to a distinct non-zero value:
// pointers are allocated, slices get two elements. A field it cannot set
// (unexported) fails the test, so nothing in the identity escapes the
// round trip below.
func fillNonZero(t *testing.T, v reflect.Value, path string, n *int) {
	t.Helper()
	*n++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
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

// TestConfigIdentityRoundTrip pins NVPConfig as the exact inverse of
// NewConfigIdentity — the property the /v1/run decoder rests on. Every
// identity field, nested ones included, is set to a distinct non-zero value,
// so a field NVPConfig forgot to carry comes back zero and fails the
// comparison.
func TestConfigIdentityRoundTrip(t *testing.T) {
	var id ConfigIdentity
	n := 0
	fillNonZero(t, reflect.ValueOf(&id).Elem(), "ConfigIdentity", &n)

	back := NewConfigIdentity(id.NVPConfig())
	if !reflect.DeepEqual(back, id) {
		t.Fatalf("identity → config → identity changed it:\n got %+v\nwant %+v", back, id)
	}
	if harness.Key(back) != harness.Key(id) {
		t.Fatal("round-tripped identity hashes to a different key")
	}
}

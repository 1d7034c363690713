package prisimclient

import (
	"reflect"
	"testing"
)

// TestCacheKeyGoldens pins the exact bytes both key schemas hash: durable
// stores on every node are keyed by these strings, so a formatter change
// that moves one silently orphans every stored result.
func TestCacheKeyGoldens(t *testing.T) {
	all := JobRequest{Kind: KindSimulate, Benchmark: "mcf", Width: 8, Policy: "pri+er", PhysRegs: 48,
		RenameInline: true, DelayedAllocation: true, FastForward: 300, Run: 1500}
	prog := JobRequest{Kind: KindProgram, Width: 8, Policy: "pri-rc-ckpt", PhysRegs: 40,
		RenameInline: true, FastForward: 7, Run: 5000}
	for name, tc := range map[string]struct{ got, want string }{
		"defaulted simulate": {CacheKeyFor("v0.5.0-dev", JobRequest{Kind: KindSimulate, Benchmark: "gzip"}),
			"d3c5be655a2d69c7828fa4f29adc0a91b4e8522afe244fddd7d2e802428bc711"},
		"all-fields simulate": {CacheKeyFor("v0.5.0-dev", all),
			"1684f8fd7196b445a743b473d993b3d9cbcb92c62ad5e66940479d7f0fd99690"},
		"program": {CacheKeyForProgram("v0.5.0-dev", "ab12cd34", prog),
			"1a0a4bf5c4d02ec03c6370f9d7664d68a735dd254d4db0aec5f51def37d8ce69"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s key = %s, want %s", name, tc.got, tc.want)
		}
	}
}

// TestCacheKeyCoversEveryField walks JobRequest by reflection: every field
// must change the keys or be listed here with the reason it cannot change a
// point's result, so a new request field cannot silently alias results.
func TestCacheKeyCoversEveryField(t *testing.T) {
	excluded := map[string]string{
		"Kind":       "the schema string separates simulate points from program runs; experiments are never keyed",
		"Experiment": "experiment jobs are whole tables, not single content-addressed points",
		"Source":     "program keys hash the assembled image, so sources that assemble alike share a result",
		"CacheKey":   "it is the key itself",
	}
	const programOnlyExcluded = "Benchmark" // the image hash takes its place
	base := JobRequest{Kind: KindSimulate, Benchmark: "gzip"}
	rt := reflect.TypeOf(base)
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		mut := base
		switch v := reflect.ValueOf(&mut).Elem().Field(i); v.Kind() {
		case reflect.String:
			v.SetString(v.String() + "-changed")
		case reflect.Int:
			v.SetInt(v.Int() + 48)
		case reflect.Uint64:
			v.SetUint(v.Uint() + 7)
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Slice:
			v.SetBytes([]byte("changed"))
		default:
			t.Fatalf("JobRequest.%s has kind %s, which this test cannot vary", name, v.Kind())
		}
		simChanged := CacheKeyFor("v1", mut) != CacheKeyFor("v1", base)
		progChanged := CacheKeyForProgram("v1", "img", mut) != CacheKeyForProgram("v1", "img", base)
		if reason, ok := excluded[name]; ok {
			if simChanged || progChanged {
				t.Errorf("JobRequest.%s is excluded (%s) but changes a key", name, reason)
			}
		} else if !simChanged || (!progChanged && name != programOnlyExcluded) {
			t.Errorf("JobRequest.%s is neither hashed by every key (simulate %t, program %t) nor excluded", name, simChanged, progChanged)
		}
	}
}

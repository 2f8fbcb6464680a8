package metrics_test

import (
	"fmt"
	"reflect"
	"testing"

	"cni/internal/atm"
	"cni/internal/cluster"
	"cni/internal/collective"
	"cni/internal/dsm"
	"cni/internal/kv"
	"cni/internal/metrics"
	"cni/internal/msgcache"
	"cni/internal/nic"
	"cni/internal/rpc"
	"cni/internal/sim"
	"cni/internal/tenant"
)

// TestFold folds two populated values of every stats type the cluster
// combines, both ways round, and checks each field against the rule;
// the exact cases pin the edges by hand.
func TestFold(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"cluster.NodeStats", foldPopulated[cluster.NodeStats]},
		{"cluster.Totals", foldPopulated[cluster.Totals]},
		{"atm.Stats", foldPopulated[atm.Stats]},
		{"atm.FaultStats", foldPopulated[atm.FaultStats]},
		{"dsm.Stats", foldPopulated[dsm.Stats]},
		{"dsm.ChainHist", foldPopulated[dsm.ChainHist]},
		{"nic.Stats", foldPopulated[nic.Stats]},
		{"nic.RelStats", foldPopulated[nic.RelStats]},
		{"collective.Stats", foldPopulated[collective.Stats]},
		{"rpc.Stats", foldPopulated[rpc.Stats]},
		{"rpc.Hist", foldPopulated[rpc.Hist]},
		{"rpc.Latencies", foldPopulated[rpc.Latencies]},
		{"kv.Stats", foldPopulated[kv.Stats]},
		{"tenant.Stats", foldPopulated[tenant.Stats]},
		{"[]tenant.Stats", foldPopulated[[]tenant.Stats]},
		{"msgcache.Stats", foldPopulated[msgcache.Stats]},

		{"tenant.Stats sums", foldExact(
			tenant.Stats{Issued: 3, Completed: 2},
			tenant.Stats{Issued: 4, Rejected: 1, Throttled: 5},
			tenant.Stats{Issued: 7, Completed: 2, Rejected: 1, Throttled: 5})},
		{"peaks keep the maximum", foldExact(
			rpc.Stats{Issued: 1, QueuePeak: 7, ParkedPeak: 2},
			rpc.Stats{Issued: 2, QueuePeak: 3, ParkedPeak: 5},
			rpc.Stats{Issued: 3, QueuePeak: 7, ParkedPeak: 5})},
		{"empty rpc.Hist source leaves Min", foldExact(hist(5, 9), rpc.Hist{}, hist(5, 9))},
		{"empty rpc.Hist destination takes Min", foldExact(rpc.Hist{}, hist(5, 9), hist(5, 9))},
		{"[]tenant.Stats grows", foldExact(
			[]tenant.Stats{{Issued: 1}},
			[]tenant.Stats{{Issued: 2}, {Throttled: 3}},
			[]tenant.Stats{{Issued: 3}, {Throttled: 3}})},
		{"float field panics", foldPanics(struct{ Ratio float64 }{0.5})},
		{"string field panics", foldPanics(struct{ Name string }{"x"})},
		{"unexported field panics", foldPanics(struct{ n uint64 }{1})},
	} {
		t.Run(tc.name, tc.run)
	}
}

func hist(samples ...sim.Time) rpc.Hist {
	var h rpc.Hist
	for _, s := range samples {
		h.Add(s)
	}
	return h
}

func foldExact[T any](dst, src, want T) func(*testing.T) {
	return func(t *testing.T) {
		metrics.Fold(&dst, src)
		if !reflect.DeepEqual(dst, want) {
			t.Fatalf("folded %+v\nwant   %+v", dst, want)
		}
	}
}

func foldPanics[T any](v T) func(*testing.T) {
	return func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatalf("Fold of %T did not panic", v)
			}
		}()
		dst := v
		metrics.Fold(&dst, v)
	}
}

// populated returns a T whose every integer leaf holds a distinct
// nonzero value (start, start+step, ...), whose histograms hold two
// samples each, and whose slices hold n elements.
func populated[T any](start, step int64, n int) T {
	var v T
	next := start - step
	fill(reflect.ValueOf(&v).Elem(), func() int64 { next += step; return next }, n)
	return v
}

func fill(v reflect.Value, next func() int64, n int) {
	switch p := v.Addr().Interface().(type) {
	case *rpc.Hist:
		p.Add(sim.Time(next()))
		p.Add(sim.Time(next()))
		return
	case *rpc.Latencies:
		p.Add(sim.Time(next()))
		p.Add(sim.Time(next()))
		return
	}
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(next())
	case reflect.Uint64:
		v.SetUint(uint64(next()))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), next, n)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), next, n)
		}
	default:
		panic("fill: unexpected kind " + v.Kind().String())
	}
}

// foldPopulated folds an ascending-valued T with one slice element into
// a descending-valued T with two, and the other way round, so that
// both sides of every `fold:"max"` field win once and slices grow.
func foldPopulated[T any](t *testing.T) {
	lo := func() T { return populated[T](1, 1, 1) }
	hi := func() T { return populated[T](1000, -1, 2) }
	for _, pair := range [][2]func() T{{lo, hi}, {hi, lo}} {
		got := pair[0]()
		metrics.Fold(&got, pair[1]())
		check(t, reflect.TypeOf(got).String(), reflect.ValueOf(got), reflect.ValueOf(pair[0]()), reflect.ValueOf(pair[1]()), false)
	}
}

// check walks a folded value beside its two inputs: integer leaves must
// be the sum, or the maximum under a `fold:"max"` tag; types with a
// Merge method must equal that method's result.
func check(t *testing.T, path string, got, a, b reflect.Value, peak bool) {
	t.Helper()
	want := reflect.New(got.Type())
	if merge := want.MethodByName("Merge"); merge.IsValid() {
		want.Elem().Set(a)
		merge.Call([]reflect.Value{b})
		if !reflect.DeepEqual(got.Interface(), want.Elem().Interface()) {
			t.Errorf("%s = %+v, want %+v", path, got, want.Elem())
		}
		return
	}
	switch got.Kind() {
	case reflect.Int, reflect.Int64, reflect.Uint64:
		w := leaf(a) + leaf(b)
		if peak {
			w = max(leaf(a), leaf(b))
		}
		if leaf(got) != w {
			t.Errorf("%s = %d, want %d (peak %v)", path, leaf(got), w, peak)
		}
	case reflect.Struct:
		for i := 0; i < got.NumField(); i++ {
			f := got.Type().Field(i)
			check(t, path+"."+f.Name, got.Field(i), a.Field(i), b.Field(i), f.Tag.Get("fold") == "max")
		}
	case reflect.Slice, reflect.Array:
		n := max(a.Len(), b.Len())
		if got.Len() != n {
			t.Fatalf("%s has %d elements, want %d", path, got.Len(), n)
		}
		for i := 0; i < n; i++ {
			check(t, fmt.Sprintf("%s[%d]", path, i), got.Index(i), elem(a, i), elem(b, i), peak)
		}
	default:
		t.Fatalf("%s: unexpected kind %s", path, got.Kind())
	}
}

func leaf(v reflect.Value) int64 {
	if v.Kind() == reflect.Uint64 {
		return int64(v.Uint())
	}
	return v.Int()
}

// elem is s[i], or the zero element past s's end.
func elem(s reflect.Value, i int) reflect.Value {
	if i < s.Len() {
		return s.Index(i)
	}
	return reflect.Zero(s.Type().Elem())
}

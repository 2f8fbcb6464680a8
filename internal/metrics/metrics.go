// Package metrics holds the one rule by which per-node statistics
// combine into cluster totals, so a new counter is one new field and
// never a change to a hand-written merge.
package metrics

import (
	"fmt"
	"reflect"
)

// Fold adds src into dst, field by field:
//
//   - integer fields (sim.Time among them) sum;
//   - integer fields tagged `fold:"max"` keep the larger value, for
//     high-water marks such as a queue peak;
//   - structs and arrays fold element by element, and slices first
//     grow to src's length;
//   - a type whose pointer has a Merge(T) method folds by it, for
//     values whose combination is not a sum (rpc.Hist keeps the
//     minimum of its non-empty sides);
//   - any other kind, or an unexported field outside such a type,
//     panics, so no field can go silently unmerged.
func Fold[T any](dst *T, src T) {
	fold(reflect.ValueOf(dst).Elem(), reflect.ValueOf(src), false)
}

func fold(dst, src reflect.Value, peak bool) {
	if m := dst.Addr().MethodByName("Merge"); m.IsValid() {
		m.Call([]reflect.Value{src})
		return
	}
	switch dst.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if peak {
			dst.SetInt(max(dst.Int(), src.Int()))
		} else {
			dst.SetInt(dst.Int() + src.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if peak {
			dst.SetUint(max(dst.Uint(), src.Uint()))
		} else {
			dst.SetUint(dst.Uint() + src.Uint())
		}
	case reflect.Struct:
		t := dst.Type()
		for i := 0; i < t.NumField(); i++ {
			fold(dst.Field(i), src.Field(i), t.Field(i).Tag.Get("fold") == "max")
		}
	case reflect.Slice:
		if n := src.Len(); dst.Len() < n {
			grown := reflect.MakeSlice(dst.Type(), n, n)
			reflect.Copy(grown, dst)
			dst.Set(grown)
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < src.Len(); i++ {
			fold(dst.Index(i), src.Index(i), peak)
		}
	default:
		panic(fmt.Sprintf("metrics: cannot fold a %s (kind %s)", dst.Type(), dst.Kind()))
	}
}

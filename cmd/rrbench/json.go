package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"time"
)

// jsonValue lowers a campaign's document to the tree encoding/json prints.
// It exists for one conversion encoding/json cannot be told about: a
// time.Duration, wherever it sits, is written in seconds. Everything else
// keeps encoding/json's rules — a field's tag names it or drops it ("-"),
// embedded structs are flattened with the outer field winning, and a
// json.Marshaler renders itself, which is how a metrics.Sample becomes its
// summary. Objects come out as maps, so keys are sorted and a
// decode-and-re-encode reproduces the bytes.
func jsonValue(doc any) any { return lower(reflect.ValueOf(doc)) }

func lower(v reflect.Value) any {
	if !v.IsValid() {
		return nil
	}
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return nil
		}
		if _, ok := v.Interface().(json.Marshaler); !ok {
			return lower(v.Elem())
		}
	case reflect.Map, reflect.Slice:
		if v.IsNil() {
			return nil
		}
	}
	switch x := v.Interface().(type) {
	case time.Duration:
		return x.Seconds()
	case json.Marshaler:
		return x
	}
	switch v.Kind() {
	case reflect.Struct:
		obj := map[string]any{}
		lowerFields(v, obj)
		return obj
	case reflect.Map: // string keys, as in every document here
		obj := make(map[string]any, v.Len())
		for it := v.MapRange(); it.Next(); {
			obj[it.Key().String()] = lower(it.Value())
		}
		return obj
	case reflect.Slice, reflect.Array:
		arr := make([]any, v.Len())
		for i := range arr {
			arr[i] = lower(v.Index(i))
		}
		return arr
	}
	return v.Interface()
}

// lowerFields adds v's exported fields to obj. Embedded structs go first so
// that a field of v itself replaces a promoted one of the same name.
func lowerFields(v reflect.Value, obj map[string]any) {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); f.Anonymous && f.Tag.Get("json") == "" {
			if e := reflect.Indirect(v.Field(i)); e.IsValid() && e.Kind() == reflect.Struct {
				lowerFields(e, obj)
			}
		}
	}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if !f.IsExported() || name == "-" || (f.Anonymous && name == "") {
			continue
		}
		if name == "" {
			name = f.Name
		}
		obj[name] = lower(v.Field(i))
	}
}

package obs

import (
	"bytes"
	"io"
	"reflect"
	"testing"
)

// TestNilReceiversAreSinks is the one check of the package contract
// that a nil instrument is a no-op sink: every exported method of every
// exported pointer-receiver type must tolerate a typed-nil receiver.
// Reflection enumerates the methods, so a newly added instrument method
// is covered the moment it exists.
func TestNilReceiversAreSinks(t *testing.T) {
	targets := []any{
		(*Counter)(nil),
		(*Gauge)(nil),
		(*Histogram)(nil),
		(*Span)(nil),
		(*Registry)(nil),
		(*Tracer)(nil),
		(*Trace)(nil),
		(*Ring)(nil),
	}
	writerT := reflect.TypeOf((*io.Writer)(nil)).Elem()
	for _, target := range targets {
		v := reflect.ValueOf(target)
		tp := v.Type()
		for i := 0; i < tp.NumMethod(); i++ {
			m := tp.Method(i)
			args := make([]reflect.Value, 0, m.Type.NumIn()-1)
			for j := 1; j < m.Type.NumIn(); j++ {
				in := m.Type.In(j)
				if in == writerT {
					// A live writer, so a buggy method that reaches the
					// write still exercises its own nil handling, not the
					// writer's.
					args = append(args, reflect.ValueOf(io.Writer(&bytes.Buffer{})))
					continue
				}
				args = append(args, reflect.Zero(in))
			}
			name := tp.Elem().Name() + "." + m.Name
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s on a nil receiver panicked: %v", name, r)
					}
				}()
				v.Method(i).Call(args)
			}()
		}
	}
}

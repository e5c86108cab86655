// Command cmd uses the exports of lib that count as used.
package main

import "fixture/lib"

func main() {
	var c lib.Counter
	c.Add()
	var v any = &lib.Gauge{}
	if l, ok := v.(interface{ Level() int }); ok {
		_ = l.Level()
	}
}

package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	fmt.Println(lib.Used(), lib.Kind(3), lib.Map([]int{1}, func(i int) string { return fmt.Sprint(i) }), lib.Box[int]{}.Get())
}

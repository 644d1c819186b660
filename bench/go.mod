module handsfree/bench

go 1.24

require handsfree v0.0.0

replace handsfree => ../

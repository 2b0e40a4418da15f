let used x = x + 1
let unused x = x - 1
let renamed x = x * 2
let scaled ?(offset = 0) ?(never = 1) x = (x * never) + offset

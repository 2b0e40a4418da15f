let used x = x + 1
let unused x = x - 1
let scaled ?(offset = 0) ?(never = 1) x = (x * never) + offset

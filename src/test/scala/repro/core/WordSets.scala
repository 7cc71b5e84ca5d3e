package repro.core

/** Word-set helpers that only the test-side reference algorithms use; node
  * sets are bit words as in [[Digraph.has]].
  */
object WordSets {

  /** |r \ s|: how many nodes of `r` are not in `s`. */
  def countMissing(r: Array[Int], s: Array[Long]): Int = {
    var n = 0
    var i = 0
    while (i < r.length) { if (!Digraph.has(s, r(i))) n += 1; i += 1 }
    n
  }
}

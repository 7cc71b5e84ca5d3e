package repro.core

/** Exact influence maximization by exhaustive subset enumeration.
  *
  * Test-only optimum OPT_t for approximation-ratio assertions — usable only on
  * tiny graphs (C(|V|, k) subsets, each one BFS).
  */
object BruteForce {

  /** @return (optimal seed set, OPT value) */
  def select(g: Digraph, k: Int): (Seq[Int], Int) = {
    val nodes = g.nodeArray.toIndexedSeq
    if (nodes.isEmpty || k <= 0) return (Nil, 0)
    require(
      nodes.length <= 25 || k <= 3,
      s"brute force over C(${nodes.length}, $k) subsets is not tractable",
    )
    var bestSet: Seq[Int] = Nil
    var bestVal           = -1
    nodes.combinations(math.min(k, nodes.length)).foreach { s =>
      val v = g.spreadOf(s)
      if (v > bestVal) { bestVal = v; bestSet = s }
    }
    (bestSet, math.max(bestVal, 0))
  }
}

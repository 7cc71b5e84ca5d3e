package repro.core

import scala.collection.mutable

/** Plain (non-lazy) greedy — test oracle for CELF's equivalence. */
object NaiveGreedy {

  def select(g: Digraph, k: Int, counter: OracleCounter): (Seq[Int], Int) = {
    val seeds   = mutable.ArrayBuffer.empty[Int]
    val covered = new Array[Long]((g.universe + 63) >>> 6)
    var value   = 0
    val nodes   = g.nodeArray
    while (seeds.length < k) {
      var bestNode = -1
      var bestGain = 0
      nodes.foreach { v =>
        if (!seeds.contains(v)) {
          counter.inc()
          val gain = WordSets.countMissing(g.reachOf(v), covered)
          if (gain > bestGain || (gain == bestGain && gain > 0 && (bestNode < 0 || v > bestNode))) {
            bestGain = gain
            bestNode = v
          }
        }
      }
      if (bestNode < 0) return (seeds.toSeq, value)
      seeds += bestNode
      value += Digraph.addAll(g.reachOf(bestNode), covered)
    }
    (seeds.toSeq, value)
  }
}

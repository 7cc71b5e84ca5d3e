package repro.core

import scala.collection.mutable

/** CELF with every node of V_t in one heap: the design [[CelfGreedy]]'s
  * source-only heap and sink stream replaced, kept as the reference of
  * [[CelfSourcesSpec]]. It searches f({v}) for every node, heap-inserts the
  * nodes one at a time and re-evaluates a gain from a reach array.
  */
object PerNodeCelf {

  /** Select up to k seeds maximizing reachability spread on `g`.
    *
    * @return (seeds, f(seeds))
    */
  def select(g: Digraph, k: Int, counter: OracleCounter): (Seq[Int], Int) = {
    if (g.nodeCount == 0 || k <= 0) return (Nil, 0)

    val nodes = g.nodeArray
    val heap  = new Heap(nodes.length)
    var i     = 0
    while (i < nodes.length) { // a while loop: Array.foreach boxes each node
      counter.inc()
      heap.push(g.spreadOf(Seq(nodes(i)), Int.MinValue), nodes(i), 0)
      i += 1
    }

    val seeds   = mutable.ArrayBuffer.empty[Int]
    val covered = new Array[Long]((g.universe + 63) >>> 6) // reach(seeds), as bit words
    var value   = 0
    var round   = 0

    while (seeds.length < k && heap.nonEmpty) {
      val node  = heap.topNode
      val fresh = heap.topRound == round
      heap.pop()
      if (fresh) {
        // Lazy evaluation: bound is fresh for this round — take it.
        seeds += node
        value += Digraph.addAll(g.reachOf(node), covered)
        round += 1
      } else {
        counter.inc()
        // A covered node's reach is covered too: its gain is 0 unsearched.
        val gain = if (Digraph.has(covered, node)) 0 else WordSets.countMissing(g.reachOf(node), covered)
        // A zero gain can only stay zero (submodularity): drop the node, so
        // a fresh top always gains and S stops where naive greedy stops.
        if (gain > 0) heap.push(gain, node, round)
      }
    }
    (seeds.toSeq, value)
  }

  /** Max-heap of cached upper bounds on marginal gain, each with the node and
    * the round it was computed in. Entries are ordered by the key
    * gain << 32 | node: gains and nodes are non-negative and a node is held
    * at most once, so keys never tie and the pop order is fully determined.
    */
  private final class Heap(capacity: Int) {
    private val keys   = new Array[Long](capacity)
    private val rounds = new Array[Int](capacity)
    private var n      = 0

    def nonEmpty: Boolean = n > 0
    def topNode: Int      = keys(0).toInt
    def topRound: Int     = rounds(0)

    def push(gain: Int, node: Int, round: Int): Unit = {
      val key = gain.toLong << 32 | node
      var i   = n
      n += 1
      while (i > 0 && keys((i - 1) / 2) < key) {
        val p = (i - 1) / 2
        keys(i) = keys(p); rounds(i) = rounds(p)
        i = p
      }
      keys(i) = key; rounds(i) = round
    }

    def pop(): Unit = {
      n -= 1
      val key   = keys(n)
      val round = rounds(n)
      var i     = 0
      var done  = n == 0
      while (!done) {
        var c = 2 * i + 1
        if (c + 1 < n && keys(c + 1) > keys(c)) c += 1
        if (c < n && keys(c) > key) {
          keys(i) = keys(c); rounds(i) = rounds(c)
          i = c
        } else done = true
      }
      if (n > 0) { keys(i) = key; rounds(i) = round }
    }
  }
}

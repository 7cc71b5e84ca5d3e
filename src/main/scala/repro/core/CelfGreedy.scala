package repro.core

import scala.collection.mutable

/** Lazy greedy (CELF, Minoux's accelerated greedy) for cardinality-constrained
  * monotone submodular maximization — the paper's "Greedy" baseline (§V-C):
  * rerun from scratch on G_t at every query, (1 − 1/e)-approximate, with lazy
  * evaluation to cut oracle calls.
  *
  * A query costs what G_t's sources (nodes with an out-edge) cost, not |V_t|.
  * Nothing carries over from one query to the next.
  *  - Only sources get a heap key f({v}), built in O(sources) by Floyd's
  *    heapify. A source whose successors are all sinks is counted, not
  *    searched ([[Digraph.singletonSpread]]).
  *  - Sinks reach only themselves. They never enter the heap: they form one
  *    stream in descending node order, each with key 1 << 32 | v and round 0,
  *    read from the graph as it is consumed. Each pop takes the larger of the
  *    heap top and the stream head. Keys never tie, so the pops are those of
  *    one heap holding every node.
  *  - A re-evaluation and a seed's selection count reach(v) against the
  *    covered set during the search, which stops at covered nodes.
  *
  * Oracle calls follow [[OracleCounter]]'s rule: f({v}) counts one call for
  * every node of V_t, sinks included, and every lazy re-evaluation counts one,
  * whether it searched or not.
  */
object CelfGreedy {

  /** Select up to k seeds maximizing reachability spread on `g`.
    *
    * @return (seeds, f(seeds))
    */
  def select(g: Digraph, k: Int, counter: OracleCounter): (Seq[Int], Int) = {
    val nodes = g.nodeCount
    if (nodes == 0 || k <= 0) return (Nil, 0)
    counter.add(nodes)

    // Every node is in the heap, in the stream or gone, so `nodes` bounds it.
    val heap    = new Heap(nodes)
    val sources = g.sourceArray
    var i       = 0
    while (i < sources.length) { // a while loop: Array.foreach boxes each node
      heap.append(g.singletonSpread(sources(i)), sources(i))
      i += 1
    }
    heap.heapify()
    var sink = g.prevSink(g.universe - 1)

    val seeds   = mutable.ArrayBuffer.empty[Int]
    val covered = new Array[Long]((g.universe + 63) >>> 6) // reach(seeds), as bit words
    var value   = 0
    var round   = 0

    while (seeds.length < k && (heap.nonEmpty || sink >= 0)) {
      val fromHeap = sink < 0 || heap.nonEmpty && heap.topKey > (1L << 32 | sink)
      val node     = if (fromHeap) heap.topNode else sink
      val fresh    = (if (fromHeap) heap.topRound else 0) == round
      if (fromHeap) heap.pop() else sink = g.prevSink(sink - 1)
      if (fresh) {
        // Lazy evaluation: bound is fresh for this round — take it.
        seeds += node
        value += g.cover(node, covered)
        round += 1
      } else {
        counter.inc()
        // A covered node's reach is covered too: its gain is 0 unsearched.
        val gain = if (Digraph.has(covered, node)) 0 else g.spreadOutside(node, covered)
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
    def topKey: Long      = keys(0)
    def topNode: Int      = keys(0).toInt
    def topRound: Int     = rounds(0)

    /** Add a round-0 entry without ordering it: [[heapify]] orders them all. */
    def append(gain: Int, node: Int): Unit = {
      keys(n) = gain.toLong << 32 | node
      n += 1
    }

    /** Floyd's bottom-up build, O(n). */
    def heapify(): Unit = {
      var i = n / 2 - 1
      while (i >= 0) { siftDown(i, keys(i), rounds(i)); i -= 1 }
    }

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
      if (n > 0) siftDown(0, keys(n), rounds(n))
    }

    /** Place (key, round) at slot `at` or below, moving larger children up. */
    private def siftDown(at: Int, key: Long, round: Int): Unit = {
      var i    = at
      var done = false
      while (!done) {
        var c = 2 * i + 1
        if (c + 1 < n && keys(c + 1) > keys(c)) c += 1
        if (c < n && keys(c) > key) {
          keys(i) = keys(c); rounds(i) = rounds(c)
          i = c
        } else done = true
      }
      keys(i) = key; rounds(i) = round
    }
  }
}

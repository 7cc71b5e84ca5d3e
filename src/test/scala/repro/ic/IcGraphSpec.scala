package repro.ic

import scala.collection.mutable
import org.scalatest.funsuite.AnyFunSuite

class IcGraphSpec extends AnyFunSuite {

  test("probability formula matches the paper's §V-C expression") {
    assert(IcGraph.probabilityOf(0) == 0.0)
    assert(math.abs(IcGraph.probabilityOf(1) - 0.0997) < 1e-3)
    assert(math.abs(IcGraph.probabilityOf(5) - (2.0 / (1 + math.exp(-1.0)) - 1)) < 1e-12)
    assert(IcGraph.probabilityOf(1000) > 0.999)
  }

  test("probability is increasing in interaction count and bounded by 1") {
    val ps = (1 to 100).map(IcGraph.probabilityOf)
    assert(ps.zip(ps.tail).forall { case (a, b) => a < b })
    assert(ps.forall(p => p > 0 && p < 1))
  }

  test("fromCounts builds reverse adjacency with probabilities") {
    val ic = IcGraph.fromCounts(Seq(((0, 1), 2), ((2, 1), 1)), universe = 5)
    assert(ic.nodeCount == 3)
    assert(ic.edgeCount == 2)
    val in = ic.inBuf(1).toMap
    assert(in.keySet == Set(0, 2))
    assert(math.abs(in(0) - IcGraph.probabilityOf(2)) < 1e-12)
    assert(math.abs(in(2) - IcGraph.probabilityOf(1)) < 1e-12)
    assert(ic.inBuf(0) == null)
  }

  test("fromCounts drops self-loops and zero counts") {
    val ic = IcGraph.fromCounts(Seq(((1, 1), 5), ((0, 1), 0)), universe = 4)
    assert(ic.nodeCount == 0)
    assert(ic.edgeCount == 0)
  }
}

class RRSetsSpec extends AnyFunSuite {

  private def rng(seed: Long) = new java.util.Random(seed)

  test("RR set always contains its target") {
    val ic = IcGraph.fromCounts(Seq(((0, 1), 1), ((1, 2), 1)), 5)
    for (s <- 0 until 20) {
      val r = RRSets.sample(ic, 2, rng(s.toLong))
      assert(r.contains(2))
    }
  }

  test("RR set only contains ancestors of the target") {
    val ic = IcGraph.fromCounts(Seq(((0, 1), 9999), ((3, 4), 9999)), 6)
    for (s <- 0 until 20) {
      val r = RRSets.sample(ic, 1, rng(s.toLong)).toSet
      assert(r.subsetOf(Set(0, 1)))
    }
  }

  test("with near-1 probabilities the RR set is the full ancestor set") {
    // chain 0->1->2 with x huge => p ~ 1
    val ic = IcGraph.fromCounts(Seq(((0, 1), 100000), ((1, 2), 100000)), 4)
    val r  = RRSets.sample(ic, 2, rng(1L)).toSet
    assert(r == Set(0, 1, 2))
  }

  test("with tiny probabilities the RR set is almost always just the target") {
    val ic = IcGraph.fromCounts(Seq(((0, 1), 1)), 3) // p ~ 0.1
    val r  = rng(42L)
    val hits = (0 until 500).count(_ => RRSets.sample(ic, 1, r).length > 1)
    assert(hits > 10 && hits < 150, s"expected ~50 two-node sets, got $hits")
  }

  test("maxCover picks the node covering the most RR sets") {
    val rr = IndexedSeq(Array(0, 1), Array(0, 2), Array(0, 3), Array(5))
    val (seeds, covered) = RRSets.maxCover(RRSets.index(rr), 1)
    assert(seeds == Seq(0))
    assert(covered == 3)
  }

  test("maxCover with k=2 covers greedily") {
    val rr = IndexedSeq(Array(0, 1), Array(0, 2), Array(5), Array(5), Array(7))
    val (seeds, covered) = RRSets.maxCover(RRSets.index(rr), 2)
    assert(seeds.toSet == Set(0, 5))
    assert(covered == 4)
  }

  test("maxCover stops early when everything is covered") {
    val rr = IndexedSeq(Array(1), Array(1))
    val (seeds, covered) = RRSets.maxCover(RRSets.index(rr), 5)
    assert(seeds == Seq(1))
    assert(covered == 2)
  }

  test("maxCover of empty RR collection is empty") {
    assert(RRSets.maxCover(RRSets.index(Nil), 3)._1.isEmpty)
  }

  test("maxCover equals a naive greedy that recounts every node every round") {
    // Naive reference: each round recount every node's uncovered sets, take
    // the argmax of (gain, node) and stop at gain 0.
    var ties = 0
    def naive(rr: Seq[Array[Int]], k: Int): (Seq[Int], Int) = {
      val covered = mutable.BitSet.empty
      val seeds   = mutable.ArrayBuffer.empty[Int]
      var total   = 0
      var done    = false
      while (seeds.size < k && !done) {
        val gains = rr.flatten.distinct.map(v => (rr.indices.count(i => !covered(i) && rr(i).contains(v)), v))
        val best  = if (gains.isEmpty) (0, -1) else gains.max
        if (best._1 == 0) done = true
        else {
          if (gains.count(_._1 == best._1) > 1) ties += 1
          seeds += best._2
          covered ++= rr.indices.filter(rr(_).contains(best._2))
          total += best._1
        }
      }
      (seeds.toSeq, total)
    }

    val r          = new scala.util.Random(17L)
    var duplicates = 0
    var kAbove     = 0
    var emptyIds   = 0
    for (_ <- 0 until 400) {
      val nodes = 1 + r.nextInt(10)
      val base  = Vector.fill(1 + r.nextInt(8))(r.shuffle((0 until nodes).toVector).take(1 + r.nextInt(nodes)).toArray)
      val rr    = r.shuffle(base ++ Vector.fill(r.nextInt(4))(base(r.nextInt(base.size))))
      val k     = 1 + r.nextInt(nodes + 3)
      if (rr.map(_.toSeq).distinct.size < rr.size) duplicates += 1
      if (k > nodes) kAbove += 1
      if (r.nextBoolean()) assert(RRSets.maxCover(RRSets.index(rr), k) == naive(rr, k))
      else {
        // A bit-set index like DIM's, from which some sets were removed, which
        // can leave a node with no ids.
        val byNode = mutable.HashMap.empty[Int, mutable.BitSet]
        rr.indices.foreach(id => rr(id).foreach(v => byNode.getOrElseUpdate(v, mutable.BitSet.empty) += id))
        val gone = rr.indices.filter(_ => r.nextInt(3) == 0).toSet
        gone.foreach(id => rr(id).foreach(v => byNode(v) -= id))
        if (byNode.values.exists(_.isEmpty)) emptyIds += 1
        val kept = rr.indices.filterNot(gone).map(rr)
        assert(RRSets.maxCover(byNode, k) == naive(kept, k))
      }
    }
    assert(ties > 50 && duplicates > 50 && kAbove > 50 && emptyIds > 20, (ties, duplicates, kAbove, emptyIds))
  }

  test("RR-estimated spread converges to exact IC spread on a simple graph") {
    // Single edge 0->1 with p: sigma({0}) = 1 + p.
    val x  = 5
    val p  = IcGraph.probabilityOf(x)
    val ic = IcGraph.fromCounts(Seq(((0, 1), x)), 2)
    val r  = rng(42L)
    // sigma({0}) ≈ n · (fraction of RR sets, uniform targets, that hold 0).
    val hit = (0 until 20000).count(_ => RRSets.sample(ic, ic.nodes(r.nextInt(ic.nodeCount)), r).contains(0))
    val est = ic.nodeCount * hit / 20000.0
    assert(math.abs(est - (1.0 + p)) < 0.05, s"est=$est expected ${1 + p}")
  }
}

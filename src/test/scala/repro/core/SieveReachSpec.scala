package repro.core

import scala.collection.mutable
import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite

/** A sieve's reach(S) as bit words, driven beside a `mutable.Set[Int]` model.
  * A copy carries its source's first exponent.
  */
class SieveReachSpec extends AnyFunSuite {
  import SieveAdn.Sieve

  /** Word count reach(S) must have: up to its highest node's word. */
  private def fitted(model: mutable.Set[Int]): Int = if (model.isEmpty) 0 else model.max / 64 + 1

  test("reach words match a set model through adds, probes and copies") {
    var grew = 0
    var kept = 0
    for (seed <- 1 to 20) {
      val rnd  = new Random(seed)
      val sets = mutable.ArrayBuffer((new Sieve(2, seed), mutable.Set.empty[Int]))
      for (step <- 0 until 200) {
        val bound  = 64 * (1 + step / 25) // nodes reach higher words as the run goes on
        val (s, m) = sets(rnd.nextInt(sets.length))
        rnd.nextInt(4) match {
          case 0 if sets.length < 8 =>
            val c = s.copySieve()
            assert(c.first == s.first && (c.words ne s.words), s"seed $seed step $step: copy")
            sets += ((c, m.clone()))
          case 1 =>
            val v = rnd.nextInt(bound + 128)
            assert(s.has(v) == m(v), s"seed $seed step $step: probe $v")
          case _ =>
            val r      = Array.fill(1 + rnd.nextInt(6))(rnd.nextInt(bound)).distinct
            val before = s.words.length
            s.add(r)
            m ++= r
            if (s.words.length == before) kept += 1 else grew += 1
        }
        // Every set, the copies and their originals included, still agrees
        // with its own model: a copy shares no words with its source.
        sets.foreach { case (s, m) =>
          assert(s.value == m.size, s"seed $seed step $step: value")
          assert(s.words.length == fitted(m), s"seed $seed step $step: ${s.words.length} words")
          var v = 0
          while (v < bound + 128) { assert(s.has(v) == m(v), s"seed $seed step $step: node $v"); v += 1 }
        }
      }
    }
    assert(grew > 0 && kept > 0, s"$grew adds grew the words, $kept did not")
  }
}

package repro

import org.apache.spark.sql.functions._
import repro.stream.InteractionStreams
import repro.tdn.Lifetimes

/** The synthetic TDN input end to end: a dataset's interaction stream, and
  * the same stream with geometric lifetimes attached.
  */
class SynthDataSpec extends SparkSpec {

  test("interactionStream extension delegates to the dataset generators") {
    val df = InteractionStreams.generate(spark, InteractionStreams.twitterHK)
    assert(df.columns.toSeq == Seq("ts", "src", "dst"))
    assert(df.count() == InteractionStreams.twitterHK.interactions)
  }

  test("tdnStream extension attaches bounded lifetimes") {
    val stream = InteractionStreams.generate(spark, InteractionStreams.twitterHiggs)
    val df     = Lifetimes.withGeometricLifetimes(stream, p = 0.05, maxL = 30, seed = 7777)
    assert(df.columns.toSeq == Seq("ts", "src", "dst", "lifetime"))
    val mm = df.agg(min("lifetime"), max("lifetime")).collect()(0)
    assert(mm.getInt(0) >= 1 && mm.getInt(1) <= 30)
  }
}

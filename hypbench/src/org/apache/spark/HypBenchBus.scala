package org.apache.spark

/** Access to Spark's listener bus, which is private to the `spark`
  * package: job counts are read only after every posted event has been
  * delivered, so a count taken right after an action is exact.
  */
object HypBenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty(60000L)
}

package org.apache.spark

/** Spark delivers listener events asynchronously; the benchmark reads its
  * job/stage/task counters only after the bus has delivered every event
  * posted so far. `listenerBus` is `private[spark]`, hence this package.
  */
object BenchListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
